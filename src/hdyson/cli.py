"""Command-line front end: reproducible runs that emit CSV/JSON tables.

Subcommands: spectrum | evolve | collapse | timeavg | manybody | entropy.
Each is declared once, in `SUBCOMMANDS`: the function that runs it, its
help line and the `RunConfig` fields it reads with their defaults.  The
parser, the dispatch, the config-file check and the manifest all come from
that table and from `RunConfig`'s annotations, so a subcommand takes
exactly the settings it reads: any other flag is a usage error, and any
other key in a `--config key=value` file an input error.  Flags beat the
file, which beats the defaults.  The command and its resolved settings are
written beside every output as `<out>.manifest.json`, and identical
configurations produce byte-identical outputs (floats are printed with 17
significant digits, so every table re-parses to the exact values that
produced it).

Every table is written from arrays, with no loop over rows: a block of
values over (outer x inner) keys is raveled beside its key columns from
`_keys`, t-major for the time series and r-major for `collapse`, and
`spectrum` and `timeavg` zip their 1-d columns.  Every output time grid
comes from `_time_grid`, which refuses a table of more than
MAX_TABLE_ROWS rows (times x keys), and in the site-resolved `evolve`
modes, `fast` and `dense`, a block of more than MAX_SITE_BLOCK amplitudes
(times x sites), before anything is built.

Exit codes: 0 success, 2 input error, 3 resource cap, 4 convergence
failure.  `main` runs a subcommand with numpy's overflow, invalid and
divide errors raised, so a run whose floats leave the double range
(FloatingPointError, or Python's OverflowError) also exits 3, before any
table or manifest is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from . import __version__
from .analytic import (
    TruncationPolicy,
    closed_form_average,
    estimate_dynamical_exponent,
    occupation,
    psi_thermo,
    single_particle_entropy,
    tail_average,
    tail_bound,
    time_average,
    time_steps,
    wave_profile_finite,
    wave_profile_thermo,
)
from .errors import ConvergenceError, InputError, ResourceLimitError
from .geometry import (
    TreeGeometry,
    block_bounds,
    check_shell,
    collapse_sites_to_shells,
    expand_shells_to_sites,
)
from .manybody import (
    KRYLOV_DIM,
    LOCAL_TOL,
    SpinState,
    evolve_spin,
    quasi_conservation_report,
)
from .oracle import dense_evolve_series, fast_evolve_series
from .spectral import ModelParams, eigenvalues

__all__ = [
    "RunConfig",
    "SUBCOMMANDS",
    "build_run_config",
    "cmd_spectrum",
    "cmd_evolve",
    "cmd_collapse",
    "cmd_timeavg",
    "cmd_manybody",
    "cmd_entropy",
    "main",
    "console_main",
]

EVOLVE_MODES = ("thermo", "finite", "dense", "fast")
ENTROPY_MODES = ("single", "manybody")
FORMATS = ("csv", "json")

# Largest times x 2^N amplitude block of `evolve --mode fast` and `--mode
# dense` (2^27 complex entries, 2 GiB); the README run, --N 20 at 81 times,
# holds 2^26.3.
MAX_SITE_BLOCK = 1 << 27
# Largest table, times x keys rows: each row is a Python tuple and a text
# line, about 0.2 KiB together.
MAX_TABLE_ROWS = 1 << 22


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one run; a run is reproducible from this.

    A field is set only when the command reads it (its `SUBCOMMANDS`
    entry); the others stay None.  Each annotation carries the flag's help.
    """

    command: str
    N: Annotated[int | None, "tree depth, chain length L = 2^N"] = None
    L: Annotated[int | None, "spin-chain length (power of two <= 16)"] = None
    sigma: Annotated[float | None, "interaction decay exponent"] = None
    J: Annotated[float | None, "coupling strength"] = None
    h: Annotated[float | None, "transverse field"] = None
    tmax: Annotated[float | None, "time horizon (units of 1/J)"] = None
    dt: Annotated[float | None, "output grid step"] = None
    K: Annotated[int | None, "mode-series cutoff"] = None
    mode: Annotated[str | None, "evaluation mode"] = None
    out: Annotated[str | None, "output path (or stem for manybody)"] = None
    format: Annotated[str | None, "table format, csv or json"] = None
    rmin: Annotated[int | None, "smallest shell"] = None
    rmax: Annotated[int | None, "largest shell"] = None
    points: Annotated[int | None, "rescaled-time samples"] = None
    compare_single_particle: Annotated[bool | None, "compare with 1-particle theory"] = None


def _field(hint) -> tuple[type, str]:
    """Value type (`X | None` is X) and help text of an annotated field."""
    inner, help_text = typing.get_args(hint)
    return next(t for t in typing.get_args(inner) if t is not type(None)), help_text


_FIELDS = {
    key: _field(hint)
    for key, hint in typing.get_type_hints(RunConfig, include_extras=True).items()
    if key != "command"
}


def _parse_value(key: str, text: str):
    kind = _FIELDS[key][0]
    if kind is bool:
        return text.lower() in ("1", "true", "yes")
    return kind(text)


def _load_config_file(path: str, command: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in SUBCOMMANDS[command].settings:
            raise InputError(f"{path}:{lineno}: {command} has no setting {key!r}")
        try:
            values[key] = _parse_value(key, value.strip())
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdyson",
        description="hierarchical-chain excitation dynamics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, subcommand in SUBCOMMANDS.items():
        # no abbreviations: where `--h` is not a flag it would abbreviate `--help`
        p = sub.add_parser(name, help=subcommand.help, allow_abbrev=False)
        p.add_argument("--config", help="key=value file; flags win on conflict")
        for key, default in subcommand.settings.items():
            kind, help_text = _FIELDS[key]
            flag = "--" + key.replace("_", "-")
            help_text += f" (default: {default})"
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=help_text)
            else:
                p.add_argument(flag, type=kind, help=help_text)
    return parser


def build_run_config(argv) -> RunConfig:
    """Parse argv and resolve flags > config file > defaults."""
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config")
    resolved = dict(SUBCOMMANDS[command].settings)
    if config_path:
        resolved.update(_load_config_file(config_path, command))
    resolved.update((key, value) for key, value in args.items() if value is not None)
    for key, value in resolved.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"{key} must be finite, got {value}")
    if resolved["format"] not in FORMATS:
        raise InputError(f"format must be one of {FORMATS}, got {resolved['format']!r}")
    if not resolved["out"] or Path(resolved["out"]).is_dir():
        raise InputError(f"output path {resolved['out']!r} is empty or a directory")
    directory = Path(resolved["out"]).parent
    if not directory.is_dir():
        raise InputError(f"output directory {str(directory)!r} does not exist")
    return RunConfig(command=command, **resolved)


# ---------------------------------------------------------------------------
# table and manifest writers
# ---------------------------------------------------------------------------

def fmt17(value) -> str:
    """17-significant-digit decimal: round-trips any float64 exactly."""
    if isinstance(value, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(value))
    return format(float(value), ".17g")


def write_table(path: str, header: list[str], rows, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(fmt17(value) for value in row))
        Path(path).write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        records = []
        for row in rows:
            record = {}
            for key, value in zip(header, row):
                if isinstance(value, (int, np.integer)):
                    record[key] = int(value)
                else:
                    record[key] = float(value)
            records.append(record)
        Path(path).write_text(json.dumps(records, indent=1) + "\n")
    else:
        raise InputError(f"unknown output format {fmt!r}")
    return str(path)


def _write_manifest(config: RunConfig, outputs: list[str], extras: dict) -> str:
    payload = {
        "package": "hdyson",
        "version": __version__,
        "config": {key: getattr(config, key)
                   for key in ("command", *SUBCOMMANDS[config.command].settings)},
        "outputs": sorted(outputs),
    }
    payload.update(extras)
    path = f"{config.out}.manifest.json"
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def _time_grid(tmax: float, dt: float | None, width: int,
               points: int | None = None, sites: int = 0) -> np.ndarray:
    """Output times 0..tmax about dt apart (or `points` of them), width keys each.

    The table of times x width rows is refused above MAX_TABLE_ROWS, and a
    site-resolved block of times x sites amplitudes above MAX_SITE_BLOCK,
    before anything is built.
    """
    if points is None:
        points = time_steps(tmax, dt) + 1
    if points * width > MAX_TABLE_ROWS:
        raise ResourceLimitError(
            f"table of {points} times x {width} = {points * width} rows exceeds the cap "
            f"of {MAX_TABLE_ROWS}"
        )
    if points * sites > MAX_SITE_BLOCK:
        raise ResourceLimitError(
            f"amplitude block of {points} times x {sites} sites exceeds the "
            f"cap of {MAX_SITE_BLOCK}"
        )
    return np.linspace(0.0, tmax, points)


def _keys(outer, inner) -> tuple[np.ndarray, np.ndarray]:
    """Key columns of an outer-major table: each outer key once per inner key."""
    outer, inner = np.asarray(outer), np.asarray(inner)
    return np.repeat(outer, inner.size), np.tile(inner, outer.size)


def _write_series(path: str, header: list[str], grid: np.ndarray, keys,
                  blocks, fmt: str) -> str:
    """t-major table of (times x keys) blocks: t, the key, one column per block."""
    return write_table(path, header, zip(*_keys(grid, keys), *(b.ravel() for b in blocks)),
                       fmt)


def _write_entropies(path: str, grid: np.ndarray, entropy: np.ndarray, fmt: str) -> str:
    """t, x, S table of the cut entropies, cuts x = 1..L-1 across."""
    cuts = np.arange(1, entropy.shape[1] + 1)
    return _write_series(path, ["t", "x", "S"], grid, cuts, [entropy], fmt)


def _sided_path(out: str, tag: str) -> str:
    path = Path(out)
    return str(path.with_name(path.stem + tag + path.suffix))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(config: RunConfig) -> dict:
    params = ModelParams(TreeGeometry(config.N), J=config.J, sigma=config.sigma)
    eps = eigenvalues(params)
    # block sizes as int64: np.diff of (0, 1, ..., 2^63) runs in float64
    degeneracy = np.diff(block_bounds(config.N)).astype(np.int64)
    rows = zip(range(eps.size), eps, degeneracy)
    out = write_table(config.out, ["k", "epsilon", "degeneracy"], rows, config.format)
    return {"outputs": [out]}


def cmd_evolve(config: RunConfig) -> dict:
    if config.mode not in EVOLVE_MODES:
        raise InputError(f"evolve mode must be one of {EVOLVE_MODES}, got {config.mode!r}")
    geom = None if config.mode == "thermo" else TreeGeometry(config.N)
    shells = range((check_shell(config.rmax, "rmax") if geom is None else geom.levels) + 1)
    sites = geom.length if config.mode in ("fast", "dense") else 0
    grid = _time_grid(config.tmax, config.dt, len(shells), sites=sites)
    policy = TruncationPolicy(config.K)

    if config.mode == "thermo":
        block = wave_profile_thermo(grid, config.sigma, config.J, policy, config.rmax)
    else:
        params = ModelParams(geom, J=config.J, sigma=config.sigma)
        if config.mode == "finite":
            block = wave_profile_finite(grid, params)
        else:
            delta = np.zeros(geom.length, dtype=complex)
            delta[0] = 1.0
            evolve = dense_evolve_series if config.mode == "dense" else fast_evolve_series
            block = collapse_sites_to_shells(evolve(params, grid, delta), geom)

    probs = occupation(np.asarray(shells), block)
    out = _write_series(config.out, ["t", "r", "psi_re", "psi_im", "P"], grid, shells,
                        [block.real, block.imag, probs], config.format)
    return {"outputs": [out]}


def cmd_collapse(config: RunConfig) -> dict:
    if config.tmax <= 0:  # the fit grid and the table need rescaled times s > 0
        raise InputError(f"tmax must be positive, got {config.tmax}")
    if config.rmin < 1 or config.rmax < config.rmin:
        raise InputError(f"need 1 <= rmin <= rmax, got {config.rmin}..{config.rmax}")
    if config.points < 1:
        raise InputError(f"points must be >= 1, got {config.points}")
    shells = range(config.rmin, check_shell(config.rmax, "rmax") + 1)
    # formed before the fit: a time scale past the double range stops the run here
    scales = [2.0 ** (config.sigma * r) for r in shells]
    s_grid = _time_grid(config.tmax, None, len(shells), points=config.points)
    policy = TruncationPolicy(config.K)
    # the fit spans six units of 1/|J| (of t at J = 0, which has nothing to fit)
    window = 6.0 / abs(config.J) if config.J else 6.0
    fit_grid = np.linspace(0.0, min(config.tmax, window), 61)[1:]
    z_est = estimate_dynamical_exponent(
        lambda r, t: psi_thermo(r, t, config.sigma, config.J, policy), shells, fit_grid,
    )

    curves = np.array([
        2.0 ** r * psi_thermo(r, s_grid * scale, config.sigma, config.J, policy)
        for r, scale in zip(shells, scales)
    ])
    r_source, s = _keys(shells, s_grid)
    out = write_table(config.out, ["s", "F_re", "F_im", "r_source"],
                      zip(s, curves.real.ravel(), curves.imag.ravel(), r_source), config.format)
    print(f"recovered dynamical exponent z = {z_est:.6f} (sigma = {config.sigma})")
    return {"outputs": [out], "z_estimate": z_est}


def cmd_timeavg(config: RunConfig) -> dict:
    if config.rmin < 0 or config.rmax < config.rmin:
        raise InputError(f"need 0 <= rmin <= rmax, got {config.rmin}..{config.rmax}")
    policy = TruncationPolicy(config.K)
    shells = range(config.rmin, check_shell(config.rmax, "rmax") + 1)
    horizons = [config.tmax if config.tmax is not None else 100.0 * 2.0 ** (r * config.sigma)
                for r in shells]
    averages = [time_average(r, horizon, config.sigma, config.J, policy, dt=config.dt)
                for r, horizon in zip(shells, horizons)]
    outputs = [write_table(
        config.out, ["r", "T", "numerical_avg", "closed_form"],
        zip(shells, horizons, averages, map(closed_form_average, shells)), config.format,
    )]
    if config.rmin == 0:  # 1 - cumulative average only closes from r = 0
        outputs.append(write_table(
            _sided_path(config.out, "_tail"),
            ["R", "T", "numerical_tail", "closed_form_tail", "bound"],
            zip(shells, horizons, 1.0 - np.cumsum(averages), map(tail_average, shells),
                map(tail_bound, shells)),
            config.format,
        ))
    return {"outputs": outputs}


def _spin_series(config: RunConfig, width: int):
    """Parameters, time grid and evolution of one flip at site 1, with entropies.

    The grid is capped as a table width keys wide; `SpinState.single_flip`
    checks L, and `evolve_spin` the energy scale and the Lanczos substeps.
    """
    geom = TreeGeometry.from_length(config.L)
    params = ModelParams(geom, J=config.J, sigma=config.sigma, h=config.h)
    grid = _time_grid(config.tmax, config.dt, width)
    series = evolve_spin(params, SpinState.single_flip(config.L), grid, compute_entropy=True)
    return params, grid, series


def cmd_manybody(config: RunConfig) -> dict:
    if config.compare_single_particle and config.h == 0:
        raise InputError("single-particle comparison needs h > 0 (paramagnetic phase)")
    params, grid, series = _spin_series(config, config.L)

    extras = {
        "scheme": "adaptive-lanczos-expm",
        "tolerances": {"local_error": LOCAL_TOL, "krylov_dim": KRYLOV_DIM},
        "lanczos": dataclasses.asdict(series.lanczos),
        "sector": series.sector,
        "quasi_conservation_max_deviation": quasi_conservation_report(series),
        "max_norm_deviation": float(np.max(np.abs(series.norms - 1.0))),
        # relative to |E(0)|, absolute when |E(0)| < 1: a zero energy (h = 0,
        # or L = 2 from one flip) comes out as rounding noise, no scale
        "max_relative_energy_drift": float(
            np.max(np.abs(series.energies - series.energies[0]))
            / max(abs(series.energies[0]), 1.0)
        ),
    }
    if config.compare_single_particle:
        block = wave_profile_finite(grid, params)
        predicted = occupation(0, expand_shells_to_sites(block, params.geom))
        extras["single_particle_max_deviation"] = float(np.max(np.abs(series.n - predicted)))
    # written once every number is formed: a run stopped by the float trap leaves no table
    ext = ".csv" if config.format == "csv" else ".json"
    outputs = [
        _write_series(f"{config.out}_n{ext}", ["t", "x", "n"], grid,
                      range(1, config.L + 1), [series.n], config.format),
        _write_series(f"{config.out}_P{ext}", ["t", "r", "P"], grid,
                      range(params.geom.levels + 1), [series.shell_p], config.format),
        _write_entropies(f"{config.out}_S{ext}", grid, series.entropy, config.format),
    ]
    return {"outputs": outputs, **extras}


def cmd_entropy(config: RunConfig) -> dict:
    if config.mode not in ENTROPY_MODES:
        raise InputError(
            f"entropy mode must be one of {ENTROPY_MODES}, got {config.mode!r}"
        )
    extras = {}
    if config.mode == "single":
        geom = TreeGeometry(config.N)
        grid = _time_grid(config.tmax, config.dt, geom.length - 1)
        block = wave_profile_thermo(grid, config.sigma, config.J,
                                    TruncationPolicy(config.K), geom.levels)
        entropy = single_particle_entropy(block, np.arange(1, geom.length))
    else:
        _, grid, series = _spin_series(config, config.L - 1)
        entropy = series.entropy
        extras["lanczos"] = dataclasses.asdict(series.lanczos)
        extras["sector"] = series.sector
    out = _write_entropies(config.out, grid, entropy, config.format)
    return {"outputs": [out], **extras}


class Subcommand(typing.NamedTuple):
    """One CLI subcommand: the function that runs it, its help line, its settings."""

    run: typing.Callable[[RunConfig], dict]
    help: str
    settings: dict  # every RunConfig field that `run` reads, with its default


SUBCOMMANDS = {
    "spectrum": Subcommand(
        cmd_spectrum, "distinct hopping eigenvalues with multiplicities",
        {"N": 6, "sigma": 1.0, "J": 1.0, "out": "spectrum.csv", "format": "csv"},
    ),
    "evolve": Subcommand(
        cmd_evolve, "shell amplitudes and probabilities over time",
        {"mode": "thermo", "N": 6, "sigma": 1.0, "J": 1.0, "tmax": 20.0, "dt": 0.1,
         "K": 64, "rmax": 12, "out": "evolve.csv", "format": "csv"},
    ),
    "collapse": Subcommand(
        cmd_collapse, "scaling-collapse curves and exponent fit",
        {"sigma": 1.0, "J": 1.0, "tmax": 20.0, "K": 64, "rmin": 1, "rmax": 8,
         "points": 201, "out": "collapse.csv", "format": "csv"},
    ),
    "timeavg": Subcommand(
        cmd_timeavg,
        "finite-horizon averages vs closed forms (no --tmax: T = 100 * 2^(sigma r))",
        {"sigma": 1.0, "J": 1.0, "tmax": None, "dt": 0.01, "K": 64, "rmin": 0,
         "rmax": 5, "out": "timeavg.csv", "format": "csv"},
    ),
    "manybody": Subcommand(
        cmd_manybody, "exact full-spin evolution at small L",
        {"L": 8, "sigma": 1.0, "J": 1.0, "h": 40.0, "tmax": 10.0, "dt": 0.1,
         "compare_single_particle": False, "out": "manybody", "format": "csv"},
    ),
    "entropy": Subcommand(
        cmd_entropy, "bipartite entanglement entropy profiles",
        {"mode": "single", "N": 8, "L": 8, "sigma": 1.0, "J": 1.0, "h": 40.0,
         "tmax": 10.0, "dt": 0.5, "K": 64, "out": "entropy.csv", "format": "csv"},
    ),
}


def main(argv=None) -> int:
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            config = build_run_config(argv)
            payload = SUBCOMMANDS[config.command].run(config)
            outputs = payload.pop("outputs")
            manifest = _write_manifest(config, outputs, payload)
        for path in outputs:
            print(f"wrote {path}")
        print(f"wrote {manifest}")
        return 0
    except InputError as exc:  # includes SingularLimitError
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (FloatingPointError, OverflowError) as exc:
        print(f"resource limit: floating-point overflow: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
