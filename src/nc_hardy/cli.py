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
    MCEstimate,
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
from .weingarten import DEFAULT_TABLE, ExactEngineError, haar_entry_moment
from .words import MatrixTuple, NcSeries, SeriesFormatError, SpectralConditionError, Word

__all__ = ["cli", "main", "entry", "SelfTestFailure", "TupleFormatError"]


class SelfTestFailure(Exception):
    """At least one acceptance criterion failed."""


class TupleFormatError(ValueError):
    """A serialized matrix tuple did not match the interchange schema."""


_SPACE_CHOICES = ("polydisc", "ball", "ball-row")


def _space_for(space: str, m: int) -> SpaceKind:
    return SpaceKind.polydisc(m) if space == "polydisc" else SpaceKind.ball(m)


def _fmt17(x: float) -> str:
    return format(float(x), ".16e")


def load_series(path: str) -> NcSeries:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SeriesFormatError(f"{path}: {exc}") from None
    try:
        return NcSeries.from_json_dict(data)
    except SeriesFormatError as exc:
        raise SeriesFormatError(f"{path}: {exc}") from None


def load_tuple(path: str) -> MatrixTuple:
    """Matrix-tuple file: {"m": ..., "n": ..., "matrices": [[[re, im], ...]]} row-major."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise TupleFormatError(f"{path}: {exc}") from None
    if not isinstance(data, dict) or not {"m", "n", "matrices"} <= set(data):
        raise TupleFormatError(f'{path}: need keys "m", "n", "matrices"')
    m, n, mats = data["m"], data["n"], data["matrices"]
    if not isinstance(m, int) or not isinstance(n, int) or m < 1 or n < 0:
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
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FreenessStructureError(f"{path}: {exc}") from None
    if not isinstance(data, list) or not data:
        raise FreenessStructureError(f"{path}: expected a nonempty list of factors")
    factors = []
    for idx, fac in enumerate(data):
        try:
            terms = {
                int(term["power"]): complex(float(term["re"]), float(term.get("im", 0.0)))
                for term in fac["terms"]
            }
            factors.append(FreenessFactor(int(fac["letter"]), terms))
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
    parts = text.split(",")
    if len(parts) != 2:
        raise click.BadParameter(f"index pair must look like 'i,j', got {text!r}")
    return int(parts[0]), int(parts[1])


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


def _config_echo(**fields: object) -> dict:
    return {k: v for k, v in fields.items() if v is not None}


_seed_option = click.option("--seed", type=int, default=None, help="Override NC_HARDY_SEED.")
_samples_option = click.option("--samples", type=int, default=100_000, show_default=True)
_out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True
)
_space_option = click.option(
    "--space", type=click.Choice(_SPACE_CHOICES), default="polydisc", show_default=True
)
_n_grid_option = click.option(
    "--N", "n_grid", type=int, multiple=True, help="Matrix dimension; repeatable."
)
_r_grid_option = click.option(
    "--r", "r_grid", type=float, multiple=True, help="Radial scale; repeatable."
)
_engine_option = click.option(
    "--engine", type=click.Choice(["exact", "mc", "both"]), default="exact", show_default=True
)
_m_option = click.option("--m", "m_check", type=int, default=None, help="Validate alphabet size.")


def _check_samples(engine: str, samples: int) -> None:
    if engine in ("mc", "both") and samples < 2:
        raise click.UsageError("--samples must be >= 2 for Monte Carlo engines")


def _check_m(m_check: int | None, m: int) -> None:
    if m_check is not None and m_check != m:
        raise click.UsageError(f"--m {m_check} does not match series alphabet size {m}")


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
@_space_option
@_m_option
@_n_grid_option
@_r_grid_option
@_engine_option
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
    f = load_series(f_file)
    g = load_series(g_file)
    if f.m != g.m:
        raise click.UsageError("series files use different alphabet sizes")
    _check_m(m_check, f.m)
    _check_samples(engine, samples)
    if fmt == "csv" and engine == "both":
        raise click.UsageError("csv output supports engine=exact or engine=mc only")
    boundary = _space_for(space, f.m).boundary(row=space == "ball-row")
    n_grid = n_grid or (2, 4, 8)
    r_grid = r_grid or (1.0,)
    effective_seed = default_seed() if seed is None else seed
    exact = pairing_grid(f, g, boundary, r_grid, n_grid) if engine != "mc" else ()
    sampled = (
        pairing_grid(
            f, g, boundary, r_grid, n_grid, "mc", samples, SeededStream(effective_seed, 0)
        )
        if engine != "exact"
        else ()
    )
    flags = {}
    if engine == "both":
        rows = []
        for cell, mc_cell in zip(exact, sampled):
            est = MCEstimate(mc_cell.value, mc_cell.std_error, samples, effective_seed)
            rows.append(
                {
                    **_cell_dict(cell),
                    "mc": est.to_json_dict(),
                    "delta_se": est.delta_in_se(cell.value),
                }
            )
        within = sum(1 for row in rows if row["delta_se"] <= 3.0)
        flags["cross_oracle_within_3se"] = within / len(rows) >= 0.99
    else:
        cells = exact or sampled
        rows = [_cell_dict(cell) for cell in cells]
    config = _config_echo(
        command="pairing",
        space=space,
        m=f.m,
        N_grid=list(n_grid),
        r_grid=list(r_grid),
        engine=engine,
        samples=samples if engine != "exact" else None,
        seed=effective_seed if engine != "exact" else None,
        format=fmt,
    )
    if fmt == "csv":
        _emit(_cells_csv(cells, with_std_error=engine == "mc"), out)
    else:
        _emit(_json_text({"config": config, "rows": rows, "flags": flags}), out)


@cli.command("inner")
@click.argument("f_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("g_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--space", type=click.Choice(["polydisc", "ball"]), default="polydisc", show_default=True)
@_m_option
@_out_option
def cmd_inner(f_file: str, g_file: str, space: str, m_check: int | None, out: str | None) -> None:
    """Coefficient-side Hardy inner product of two series."""
    f = load_series(f_file)
    g = load_series(g_file)
    if f.m != g.m:
        raise click.UsageError("series files use different alphabet sizes")
    _check_m(m_check, f.m)
    value = inner_product(f, g, _space_for(space, f.m))
    _emit(_json_text({"re": value.real, "im": value.imag, "exact": True}), out)


@cli.command("recover")
@click.argument("f_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--word", "word_text", required=True, help="Comma-separated letters; '' for the empty word.")
@click.option("--space", type=click.Choice(["polydisc", "ball"]), default="polydisc", show_default=True)
@_m_option
@_n_grid_option
@click.option("--r", "r_scale", type=float, default=0.9, show_default=True)
@_engine_option
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
    if engine == "both":
        raise click.UsageError("recover supports engine=exact or engine=mc")
    f = load_series(f_file)
    _check_m(m_check, f.m)
    _check_samples(engine, samples)
    word = _parse_word(word_text)
    kind = _space_for(space, f.m)
    n_grid = n_grid or (2, 4, 8)
    effective_seed = default_seed() if seed is None else seed
    report = coeff_recover(
        f,
        word,
        r_scale,
        kind,
        list(n_grid),
        engine=engine,  # type: ignore[arg-type]
        samples=samples,
        stream=SeededStream(effective_seed, 0) if engine == "mc" else None,
        richardson=richardson,
    )
    if fmt == "csv":
        _emit(_cells_csv(report.cells, with_std_error=engine == "mc"), out)
        return
    payload = {
        "config": _config_echo(
            command="recover",
            space=space,
            m=f.m,
            word=list(word.letters),
            N_grid=list(n_grid),
            r=r_scale,
            engine=engine,
            samples=samples if engine == "mc" else None,
            seed=effective_seed if engine == "mc" else None,
        ),
        "rows": [_cell_dict(cell) for cell in report.cells],
        "recovered_re": report.recovered.real,
        "recovered_im": report.recovered.imag,
    }
    if report.richardson is not None:
        payload["richardson_re"] = report.richardson.real
        payload["richardson_im"] = report.richardson.imag
    _emit(_json_text(payload), out)


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
@_space_option
@_m_option
@_n_grid_option
@_r_grid_option
@_engine_option
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
    if engine == "both":
        raise click.UsageError("profile supports engine=exact or engine=mc")
    f = load_series(f_file)
    _check_m(m_check, f.m)
    _check_samples(engine, samples)
    if space == "ball-row":
        raise click.UsageError("profile uses --space polydisc or ball")
    kind = _space_for(space, f.m)
    n_grid = n_grid or (2, 4, 8)
    r_grid = r_grid or (0.5, 0.9, 1.0)
    effective_seed = default_seed() if seed is None else seed
    report = boundary_norm_profile(
        f,
        kind,
        list(r_grid),
        list(n_grid),
        engine=engine,  # type: ignore[arg-type]
        samples=samples,
        stream=SeededStream(effective_seed, 0) if engine == "mc" else None,
    )
    if fmt == "csv":
        _emit(_cells_csv(report.cells, with_std_error=engine == "mc"), out)
        return
    payload = {
        "config": _config_echo(
            command="profile",
            space=space,
            m=f.m,
            N_grid=list(n_grid),
            r_grid=list(r_grid),
            engine=engine,
            samples=samples if engine == "mc" else None,
            seed=effective_seed if engine == "mc" else None,
        ),
        "rows": [_cell_dict(cell) for cell in report.cells],
        "s_estimate": report.s_estimate,
        "limit_inner_product_re": report.limit_inner_product.real,
        "limit_inner_product_im": report.limit_inner_product.imag,
    }
    _emit(_json_text(payload), out)


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
    if samples < 2:
        raise click.UsageError("--samples must be >= 2")
    n_grid = n_grid or (4, 8, 16, 32)
    effective_seed = default_seed() if seed is None else seed
    report = freeness_diagnostic(
        factors, list(n_grid), samples, SeededStream(effective_seed, 0)
    )
    payload = {
        "config": _config_echo(
            command="freeness", N_grid=list(n_grid), samples=samples, seed=effective_seed
        ),
        "rows": [
            {"N": row.N, **row.estimate.to_json_dict()} for row in report.rows
        ],
        "abs_means": list(report.abs_means),
        "monotone_decreasing": report.monotone_decreasing,
        "final_within_3se": report.final_within_3se,
    }
    _emit(_json_text(payload), out)


@cli.command("selftest")
@_seed_option
@click.option("--only", "only", multiple=True, type=int, help="Run a subset of criteria.")
@click.option("--inject-wg-corruption", is_flag=True, hidden=True)
def cmd_selftest(seed: int | None, only: tuple[int, ...], inject_wg_corruption: bool) -> None:
    """Run the acceptance battery; exit code 0 iff every criterion passes."""
    click.echo(f"nc-hardy selftest (seed = {default_seed() if seed is None else seed})")
    results = acceptance.run_all(
        seed=seed, only=only or None, inject_wg_corruption=inject_wg_corruption
    )
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
