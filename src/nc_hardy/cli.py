"""Command-line surface: load series and matrix tuples, run exact and Monte
Carlo integrations, emit verification reports.

Exit codes: 0 success, 1 usage or input format, 2 numeric precondition,
3 selftest failure.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import click
import numpy as np

from . import acceptance
from .haar_mc import (
    FreenessFactor,
    FreenessStructureError,
    SeededStream,
    default_seed,
    freeness_diagnostic,
)
from .hardy import (
    GridCell,
    SpaceKind,
    boundary_norm_profile,
    coeff_recover,
    inner_product,
    kernel_eval,
    pairing_grid,
    upsilon_membership,
)
from .weingarten import DEFAULT_TABLE, BoundaryKind, ExactEngineError, haar_entry_moment
from .words import MatrixTuple, NcSeries, SeriesFormatError, SpectralConditionError, Word
from .words import _check_alphabets, _check_integer, _json_integer

__all__ = ["cli", "main", "entry", "SelfTestFailure", "TupleFormatError"]


class SelfTestFailure(Exception):
    """At least one acceptance criterion failed."""


class TupleFormatError(ValueError):
    """A serialized matrix tuple did not match the interchange schema."""


def _space_for(space: str, m: int) -> SpaceKind:
    return SpaceKind.polydisc(m) if space == "polydisc" else SpaceKind.ball(m)


def _fmt17(x: float) -> str:
    return format(float(x), ".16e")


def _read_json(path: str, error: type[ValueError]) -> object:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def load_series(path: str) -> NcSeries:
    data = _read_json(path, SeriesFormatError)
    try:
        return NcSeries.from_json_dict(data)
    except SeriesFormatError as exc:
        raise SeriesFormatError(f"{path}: {exc}") from None


def _load_series_files(paths: Sequence[str], m_check: int | None) -> list[NcSeries]:
    """The series of a grid command, on one alphabet that matches --m if given."""
    series = [load_series(path) for path in paths]
    _check_alphabets(*(s.m for s in series))
    m = series[0].m
    if m_check is not None and m_check != m:
        raise click.UsageError(f"--m {m_check} does not match series alphabet size {m}")
    return series


def load_tuple(path: str) -> MatrixTuple:
    """Matrix-tuple file: {"m": ..., "n": ..., "matrices": [[[re, im], ...]]} row-major."""
    data = _read_json(path, TupleFormatError)
    if not isinstance(data, dict) or not {"m", "n", "matrices"} <= set(data):
        raise TupleFormatError(f'{path}: need keys "m", "n", "matrices"')
    m, n = (_json_integer(data[key], f'{path}: "{key}"', TupleFormatError) for key in "mn")
    mats = data["matrices"]
    if m < 1 or n < 0:
        raise TupleFormatError(f"{path}: invalid m or n")
    if not isinstance(mats, list) or len(mats) != m:
        raise TupleFormatError(f"{path}: expected {m} matrices")
    out = []
    for k, rows in enumerate(mats):
        try:
            arr = np.array(
                [[complex(cell[0], cell[1]) for cell in row] for row in rows],
                dtype=complex,
            ).reshape(n, n)
        except (TypeError, ValueError, IndexError) as exc:
            raise TupleFormatError(f"{path}: matrix {k}: {exc}") from None
        out.append(arr)
    try:
        return MatrixTuple(out)
    except ValueError as exc:
        raise TupleFormatError(f"{path}: {exc}") from None


def load_factors(path: str) -> list[FreenessFactor]:
    """Factor file: [{"letter": 1, "terms": [{"power": 1, "re": 1.0, "im": 0.0}]}]."""
    data = _read_json(path, FreenessStructureError)
    if not isinstance(data, list) or not data:
        raise FreenessStructureError(f"{path}: expected a nonempty list of factors")
    factors = []
    for idx, fac in enumerate(data):
        try:
            letter = _json_integer(fac["letter"], "letter", FreenessStructureError)
            terms = {}
            for term in fac["terms"]:
                power = _json_integer(term["power"], "power", FreenessStructureError)
                terms[power] = complex(float(term["re"]), float(term.get("im", 0.0)))
            factors.append(FreenessFactor(letter, terms))
        except (TypeError, KeyError, ValueError) as exc:
            raise FreenessStructureError(f"{path}: factor {idx}: {exc}") from None
    return factors


def _parse_word(text: str) -> Word:
    if text.strip() == "":
        return Word()
    try:
        return Word(int(part) for part in text.split(","))
    except ValueError as exc:
        raise click.BadParameter(f"word must be comma-separated letters: {exc}")


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        i, j = map(int, text.split(","))
    except ValueError:
        raise click.BadParameter(f"index pair must look like 'i,j', got {text!r}") from None
    return i, j


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cells_csv(cells: Sequence[GridCell], with_std_error: bool) -> str:
    header = "param_r,param_N,value_re,value_im"
    if with_std_error:
        header += ",std_error"
    lines = [header]
    for cell in cells:
        row = f"{_fmt17(cell.r)},{cell.N},{_fmt17(cell.value.real)},{_fmt17(cell.value.imag)}"
        if with_std_error:
            row += f",{_fmt17(cell.std_error if cell.std_error is not None else 0.0)}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _cell_dict(cell: GridCell) -> dict:
    out = {
        "r": cell.r,
        "N": cell.N,
        "value_re": cell.value.real,
        "value_im": cell.value.imag,
        "exact": cell.exact,
    }
    if cell.std_error is not None:
        out["std_error"] = cell.std_error
    return out


def _emit_grid(
    out: str | None, fmt: str, config: dict, cells: Sequence[GridCell], rows=None, **fields
) -> None:
    """A grid command's output: the cells as CSV, or the config, the rows (one
    per cell unless given) and the command's own fields as JSON."""
    if fmt == "csv":
        _emit(_cells_csv(cells, with_std_error=config["engine"] == "mc"), out)
        return
    rows = rows if rows is not None else [_cell_dict(cell) for cell in cells]
    _emit(_json_text({"config": config, "rows": rows, **fields}), out)


def _sampling(engine: str, samples: int, seed: int | None) -> tuple[SeededStream | None, dict]:
    """The seeded stream of a run and the config fields that record it; only a
    sampling engine checks --samples and reads NC_HARDY_SEED."""
    if engine == "exact":
        return None, {}
    _check_integer(samples, "samples", 2)
    seed = default_seed() if seed is None else seed
    return SeededStream(seed, 0), {"samples": samples, "seed": seed}


_seed_option = click.option("--seed", type=int, default=None, help="Override NC_HARDY_SEED.")
_samples_option = click.option("--samples", type=int, default=100_000, show_default=True)
_out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True
)
_n_grid_option = click.option(
    "--N", "n_grid", type=int, multiple=True, help="Matrix dimension; repeatable."
)
_r_grid_option = click.option(
    "--r", "r_grid", type=float, multiple=True, help="Radial scale; repeatable."
)
_m_option = click.option("--m", "m_check", type=int, default=None, help="Validate alphabet size.")


def _space_option(*choices: str):
    return click.option("--space", type=click.Choice(choices), default="polydisc", show_default=True)


def _engine_option(*choices: str):
    return click.option("--engine", type=click.Choice(choices), default="exact", show_default=True)


@click.group()
def cli() -> None:
    """Hardy spaces of free noncommutative functions: exact unitary-group
    integration with a seeded Monte Carlo cross-check."""


@cli.command("wg")
@click.option("--n", "order", type=int, required=True, help="Weingarten order.")
@click.option("--N", "dim", type=int, required=True, help="Unitary group dimension.")
@_out_option
def cmd_wg(order: int, dim: int, out: str | None) -> None:
    """Weingarten values of order n at dimension N, one row per cycle type."""
    values = DEFAULT_TABLE.values(order, dim)
    rows = [
        {
            "cycle_type": list(ct),
            "value": float(frac),
            "fraction": str(frac),
            "n_exponent": len(ct) - 2 * order,
        }
        for ct, frac in sorted(values.items())
    ]
    _emit(_json_text({"n": order, "N": dim, "rows": rows}), out)


@cli.command("moment")
@click.option("--N", "dim", type=int, required=True)
@click.option("--up", "ups", multiple=True, help="Plain entry index 'i,j'; repeatable.")
@click.option("--conj", "conjs", multiple=True, help="Conjugated entry index 'i,j'; repeatable.")
@_out_option
def cmd_moment(dim: int, ups: tuple[str, ...], conjs: tuple[str, ...], out: str | None) -> None:
    """Exact Haar entry moment E[prod u_ij prod conj(u_i'j')]."""
    value = haar_entry_moment(
        [_parse_pair(t) for t in ups], [_parse_pair(t) for t in conjs], dim
    )
    _emit(
        _json_text(
            {
                "N": dim,
                "value": float(value),
                "fraction": str(value),
                "exact": True,
            }
        ),
        out,
    )


@cli.command("pairing")
@click.argument("f_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("g_file", type=click.Path(exists=True, dir_okay=False))
@_space_option("polydisc", "ball", "ball-row")
@_m_option
@_n_grid_option
@_r_grid_option
@_engine_option("exact", "mc", "both")
@_samples_option
@_seed_option
@_out_option
@_format_option
def cmd_pairing(
    f_file: str,
    g_file: str,
    space: str,
    m_check: int | None,
    n_grid: tuple[int, ...],
    r_grid: tuple[float, ...],
    engine: str,
    samples: int,
    seed: int | None,
    out: str | None,
    fmt: str,
) -> None:
    """Boundary integral of (1/N) Tr(g(rX)* f(rX)) over an (r, N) grid."""
    if fmt == "csv" and engine == "both":
        raise click.UsageError("csv output supports engine=exact or engine=mc only")
    f, g = _load_series_files((f_file, g_file), m_check)
    stream, sampling = _sampling(engine, samples, seed)
    if space == "ball-row":
        boundary = BoundaryKind.ball_row(f.m)
    else:
        boundary = _space_for(space, f.m).boundary()
    n_grid = n_grid or (2, 4, 8)
    r_grid = r_grid or (1.0,)
    exact = pairing_grid(f, g, boundary, r_grid, n_grid) if engine != "mc" else ()
    sampled = pairing_grid(f, g, boundary, r_grid, n_grid, "mc", samples, stream) if stream else ()
    rows, flags = None, {}
    if engine == "both":
        rows = []
        for cell, mc_cell in zip(exact, sampled):
            est = mc_cell.estimate
            rows.append(
                {
                    **_cell_dict(cell),
                    "mc": est.to_json_dict(),
                    "delta_se": est.delta_in_se(cell.value),
                }
            )
        within = sum(1 for row in rows if row["delta_se"] <= 3.0)
        flags["cross_oracle_within_3se"] = within / len(rows) >= 0.99
    config = {
        "command": "pairing",
        "space": space,
        "m": f.m,
        "N_grid": list(n_grid),
        "r_grid": list(r_grid),
        "engine": engine,
        **sampling,
        "format": fmt,
    }
    _emit_grid(out, fmt, config, exact or sampled, rows, flags=flags)


@cli.command("inner")
@click.argument("f_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("g_file", type=click.Path(exists=True, dir_okay=False))
@_space_option("polydisc", "ball")
@_m_option
@_out_option
def cmd_inner(f_file: str, g_file: str, space: str, m_check: int | None, out: str | None) -> None:
    """Coefficient-side Hardy inner product of two series."""
    f, g = _load_series_files((f_file, g_file), m_check)
    value = inner_product(f, g, _space_for(space, f.m))
    _emit(_json_text({"re": value.real, "im": value.imag, "exact": True}), out)


@cli.command("recover")
@click.argument("f_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--word", "word_text", required=True, help="Comma-separated letters; '' for the empty word.")
@_space_option("polydisc", "ball")
@_m_option
@_n_grid_option
@click.option("--r", "r_scale", type=float, default=0.9, show_default=True)
@_engine_option("exact", "mc")
@_samples_option
@_seed_option
@click.option("--richardson", is_flag=True, help="Append one 1/N^2 extrapolation step.")
@_out_option
@_format_option
def cmd_recover(
    f_file: str,
    word_text: str,
    space: str,
    m_check: int | None,
    n_grid: tuple[int, ...],
    r_scale: float,
    engine: str,
    samples: int,
    seed: int | None,
    richardson: bool,
    out: str | None,
    fmt: str,
) -> None:
    """Recover one Taylor coefficient from boundary integrals, with the N-trend."""
    (f,) = _load_series_files((f_file,), m_check)
    stream, sampling = _sampling(engine, samples, seed)
    word = _parse_word(word_text)
    n_grid = n_grid or (2, 4, 8)
    report = coeff_recover(
        f,
        word,
        r_scale,
        _space_for(space, f.m),
        list(n_grid),
        engine=engine,  # type: ignore[arg-type]
        samples=samples,
        stream=stream,
        richardson=richardson,
    )
    fields = {
        "recovered_re": report.recovered.real,
        "recovered_im": report.recovered.imag,
    }
    if report.richardson is not None:
        fields["richardson_re"] = report.richardson.real
        fields["richardson_im"] = report.richardson.imag
    config = {
        "command": "recover",
        "space": space,
        "m": f.m,
        "word": list(word.letters),
        "N_grid": list(n_grid),
        "r": r_scale,
        "engine": engine,
        **sampling,
    }
    _emit_grid(out, fmt, config, report.cells, **fields)


@cli.command("upsilon")
@click.argument("tuple_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--p", "weight", type=float, default=1.0, show_default=True)
@click.option("--max-degree", type=int, default=48, show_default=True)
@click.option("--threshold", type=float, default=32.0, show_default=True)
@_out_option
def cmd_upsilon(
    tuple_file: str, weight: float, max_degree: int, threshold: float, out: str | None
) -> None:
    """Membership verdict for the weighted word-Gram series at a matrix tuple."""
    x = load_tuple(tuple_file)
    verdict = upsilon_membership(x, weight, max_degree, threshold)
    _emit(_json_text(verdict.to_json_dict()), out)


@cli.command("kernel")
@click.argument("x_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("y_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--p", "weight", type=float, default=1.0, show_default=True)
@click.option("--max-degree", type=int, default=12, show_default=True)
@_out_option
def cmd_kernel(
    x_file: str, y_file: str, weight: float, max_degree: int, out: str | None
) -> None:
    """Truncated kernel value at a pair of matrix tuples."""
    x = load_tuple(x_file)
    y = load_tuple(y_file)
    kv = kernel_eval(x, y, weight, max_degree)
    _emit(
        _json_text(
            {
                "truncation_degree": kv.truncation_degree,
                "tail_bound": kv.tail_bound,
                "shape": list(kv.value.shape),
                "value_re": kv.value.real.tolist(),
                "value_im": kv.value.imag.tolist(),
            }
        ),
        out,
    )


@cli.command("profile")
@click.argument("f_file", type=click.Path(exists=True, dir_okay=False))
@_space_option("polydisc", "ball")
@_m_option
@_n_grid_option
@_r_grid_option
@_engine_option("exact", "mc")
@_samples_option
@_seed_option
@_out_option
@click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="csv", show_default=True
)
def cmd_profile(
    f_file: str,
    space: str,
    m_check: int | None,
    n_grid: tuple[int, ...],
    r_grid: tuple[float, ...],
    engine: str,
    samples: int,
    seed: int | None,
    out: str | None,
    fmt: str,
) -> None:
    """Boundary norm profile of f over an (r, N) grid with the grid-sup estimate."""
    (f,) = _load_series_files((f_file,), m_check)
    stream, sampling = _sampling(engine, samples, seed)
    n_grid = n_grid or (2, 4, 8)
    r_grid = r_grid or (0.5, 0.9, 1.0)
    report = boundary_norm_profile(
        f,
        _space_for(space, f.m),
        list(r_grid),
        list(n_grid),
        engine=engine,  # type: ignore[arg-type]
        samples=samples,
        stream=stream,
    )
    config = {
        "command": "profile",
        "space": space,
        "m": f.m,
        "N_grid": list(n_grid),
        "r_grid": list(r_grid),
        "engine": engine,
        **sampling,
    }
    _emit_grid(
        out,
        fmt,
        config,
        report.cells,
        s_estimate=report.s_estimate,
        limit_inner_product_re=report.limit_inner_product.real,
        limit_inner_product_im=report.limit_inner_product.imag,
    )


@cli.command("freeness")
@click.argument("factors_file", type=click.Path(exists=True, dir_okay=False))
@_n_grid_option
@click.option("--samples", type=int, default=10_000, show_default=True)
@_seed_option
@_out_option
def cmd_freeness(
    factors_file: str,
    n_grid: tuple[int, ...],
    samples: int,
    seed: int | None,
    out: str | None,
) -> None:
    """Estimate the normalized trace of an alternating centered product per N."""
    factors = load_factors(factors_file)
    stream, sampling = _sampling("mc", samples, seed)
    n_grid = n_grid or (4, 8, 16, 32)
    report = freeness_diagnostic(factors, list(n_grid), samples, stream)
    payload = {
        "config": {"command": "freeness", "N_grid": list(n_grid), **sampling},
        "rows": [
            {"N": row.N, **row.estimate.to_json_dict()} for row in report.rows
        ],
        "abs_means": list(report.abs_means),
        "monotone_decreasing": report.monotone_decreasing,
        "final_within_3se": report.final_within_3se,
    }
    _emit(_json_text(payload), out)


def _selftest_seeds(seed: int | None, only: tuple[int, ...]) -> str:
    """The seeds the selected criteria sample with.  NC_HARDY_SEED plays no
    part: without --seed each sampling criterion has its own fixed seed."""
    if seed is not None:
        return f"seed = {seed}"
    numbers = sorted(set(only) or acceptance.CRITERIA)
    seeds = [
        f"criterion {k} = {acceptance.MC_SEEDS[k]}" for k in numbers if k in acceptance.MC_SEEDS
    ]
    return "seeds: " + ", ".join(seeds) if seeds else "no selected criterion draws seeded samples"


@cli.command("selftest")
@_seed_option
@click.option("--only", "only", multiple=True, type=int, help="Run a subset of criteria.")
def cmd_selftest(seed: int | None, only: tuple[int, ...]) -> None:
    """Run the acceptance battery; exit code 0 iff every criterion passes."""
    unknown = sorted(set(only) - set(acceptance.CRITERIA))
    if unknown:
        raise click.UsageError(f"unknown criteria {unknown}; valid: {sorted(acceptance.CRITERIA)}")
    click.echo(f"nc-hardy selftest ({_selftest_seeds(seed, only)})")
    results = acceptance.run_all(seed=seed, only=only or None)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        click.echo(
            f"{status}  {res.number:>2}  {res.name:<28} ({res.seconds:6.2f}s)  {res.details}"
        )
    failed = [res.number for res in results if not res.passed]
    if failed:
        raise SelfTestFailure(f"criteria failed: {failed}")
    click.echo(f"all {len(results)} criteria passed")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cli.main(args=argv, prog_name="nc-hardy", standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (SeriesFormatError, TupleFormatError, FreenessStructureError, FileNotFoundError) as exc:
        click.echo(f"input error: {exc}", err=True)
        return 1
    except SelfTestFailure as exc:
        click.echo(str(exc), err=True)
        return 3
    except (
        ExactEngineError,
        SpectralConditionError,
        np.linalg.LinAlgError,
        ValueError,
        ZeroDivisionError,
    ) as exc:
        click.echo(f"precondition error: {exc}", err=True)
        return 2


def entry() -> None:
    raise SystemExit(main())
