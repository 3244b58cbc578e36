"""Command-line entry point.

Dispatches the four experiment families (single-shot, binary, continuous,
classical) plus figure-regeneration presets, and serializes results as CSV
files, a machine-checkable JSON summary, and a run manifest with checksums.
Exit status: 0 all checks passed, 2 a check failed or none applied, 1 usage
or runtime error, after which no output file of the run is left behind.
All files are dimensionless (energies in hbar*omega, times in 1/omega) and
written with 17 significant digits.  A CSV cell reads as '%.17g' % v, or
'%d' and '%s' for integer and bool columns, byte for byte, but cells are
formatted as arrays, a block of rows at a time.  Zeros and floats whose
17-digit rounding has decimal exponent in [-6, 16] are laid out from an
exactly rounded significand; the rest (|v| < 1e-6, |v| >= 1e17, inf, nan)
go through '%' one by one.  Each file's SHA-256 for the manifest is
computed from the bytes as they are written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import platform
import queue
import sys
import threading
import time
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows, where an ensemble forks no worker
    resource = None

import numpy as np

from . import __version__, feedback
from .config import EngineConfig, POLICIES, SCHEMES
from .ensembles import (
    KS_MIN_SAMPLES,
    WorkStatistics,
    _moments,
    efficiency_series,
    exact_work_cdf,
    exact_work_pdf,
    ks_compare,
    ledger_mean_work,
    mean_work_curve,
    run_ensemble,
    sigma_schedule,
)
from .errors import UncertaintyViolationError
from .feedback import STREAM_LAYOUT, ensemble_layout, run_trajectory
from .gaussian import NoiseSource
from .single_shot import (
    binary_average_work,
    binary_efficiency,
    erfc,
    extract_work_binary,
    max_binary_efficiency,
    sample_outcomes,
)
from .thermo import binary_p0, binary_thermo_efficiency, classical_cycle

PRESETS = ("figure-2b", "figure-2c", "figure-2f", "figure-S2", "figure-S3")

UNIT_COMMENTS = [
    "dimensionless units: energy in hbar*omega, time in 1/omega",
    "quadratures scaled by sqrt(m*omega/hbar)",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON file with default parameters")
    p.add_argument("--nbar", type=float)
    p.add_argument("--tau", type=float, help="sets both channel times")
    p.add_argument("--tau1", type=float)
    p.add_argument("--tau2", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-final", type=float)
    p.add_argument("--n-traj", type=int)
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--r0", type=float)
    p.add_argument("--demon-kbtd", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir", type=Path)


def build_parser() -> _Parser:
    parser = _Parser(prog="qmengine", description=__doc__)
    sub = parser.add_subparsers(dest="family", required=True)
    for name in ("single-shot", "binary", "continuous", "classical"):
        p = sub.add_parser(name)
        p.set_defaults(label=name)
        _add_engine_flags(p)
        if name == "classical":
            p.add_argument("--spring-k", type=float)
            p.add_argument("--kbt", type=float)
    p = sub.add_parser("presets")
    p.add_argument("label", metavar="preset", choices=PRESETS)
    _add_engine_flags(p)
    return parser


#: The config values each preset fixes, applied by parse_config before
#: validate: a flag or file value that differs is a usage error.  "spacing"
#: is that of the preset's checkpoint grid, not a config value: the default
#: dt divides it, and a given dt must.  parse_config also fixes tau2 to
#: tau1 for figure-S3, which sweeps tau2/tau1 itself, and for figure-2b,
#: whose exact overlay exists only for symmetric channels.
_PRESET_VALUES = {
    "figure-2b": {"policy": "terminal"},
    "figure-2c": {"policy": "terminal", "t_final": 5.0, "spacing": 0.5},
    "figure-2f": {"t_final": 10.0, "spacing": 0.25},
    "figure-S3": {"policy": "per-step", "t_final": 25.0, "spacing": 1.0},
}
#: Defaults that flags and file values override; at 10^5 binary samples its
#: 3 se mean gate is about 1% of the mean.
_DEFAULTS = {"binary": {"n_traj": 100_000}, "figure-2f": {"nbar": 1.0}}


def parse_config(args: argparse.Namespace) -> EngineConfig:
    """Build the validated config that runs: flags override file values,
    which override _DEFAULTS; a value that _PRESET_VALUES fixes stays fixed.
    """
    values: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise UsageError(f"{args.config} must hold a JSON object")
        values.update(loaded)
    fields = [f.name for f in dataclasses.fields(EngineConfig)]
    if getattr(args, "tau", None) is not None:
        values["tau1"] = args.tau
        values["tau2"] = args.tau
    for name in fields:
        if name != "output_path" and getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    if getattr(args, "output_dir", None) is not None:
        values["output_path"] = Path(args.output_dir)
    elif "output_path" in values and values["output_path"] is not None:
        path = values["output_path"]
        if not isinstance(path, str):
            raise UsageError(f"output_path must be a string, got {path!r}")
        values["output_path"] = Path(path)
    unknown = set(values) - set(fields)
    if unknown:
        raise UsageError(f"unknown configuration keys: {sorted(unknown)}")
    fixed = dict(_PRESET_VALUES.get(args.label, {}))
    spacing = fixed.pop("spacing", None)
    if args.label in ("figure-2b", "figure-S3"):
        fixed["tau2"] = values.get("tau1", EngineConfig().tau1)
    for name, value in fixed.items():
        if name in values and values[name] != value:
            raise UsageError(f"{args.label} fixes {name} = {value}, got {values[name]}")
    config = EngineConfig(**(_DEFAULTS.get(args.label, {}) | values | fixed)).validate()
    if spacing is not None:
        # validated first: default_dt needs numbers
        if config.dt is None:
            config = dataclasses.replace(config, dt=config.default_dt(spacing)).validate()
        config.step_index(spacing)
    return config


def _fmt(x) -> str:
    """A scalar as a comment or CSV cell shows it; also the per-cell
    fallback of _float_cells."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


#: Rows formatted together by one of _write_csv's threads.  Each numpy call
#: of a block may hand the GIL to another thread, so two threads gain only
#: on blocks this long; a worker's temporaries peak at about 4.4 MB.
_CSV_BLOCK_ROWS = 12288

#: 10**p for p = 0..22, every one an exact double, and its Dekker split.
_POW10 = np.array([float(10**p) for p in range(23)])
_SPLIT = 134217729.0  # 2**27 + 1
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# _float_cells lays out a float cell in a 32-byte row whose zero bytes are
# dropped when its block is written: the prefix (sign, "0." and leading
# zeros) ends at byte 6, significant digit j (of 17) sits at byte 7 + j
# before the point and at 8 + j after it, and the suffix ("e-05", "e-06")
# starts at byte 25.  Three keys pick the table rows that lay it out:
# - layout: 2*(X + 6) + sign for a float whose 17-digit rounding has decimal
#   exponent X in [-6, 16]; 46 and 47 for 0 and -0; 48 for an empty cell;
# - point: the point follows digit q = 0..16, or there is none (17);
# - shown: how many of the 17 digits the cell shows.
_DIGITS_AT = 7
_SUFFIX_AT = 25


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as one uint32, and how many
    trailing zero digits each has (4 for 0)."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    pairs = np.empty((10, 10, 2), np.uint8)
    pairs[..., 0], pairs[..., 1] = digits[:, None], digits
    pairs = pairs.view(np.uint16).ravel()
    quads = np.empty((100, 100, 2), np.uint16)
    quads[..., 0], quads[..., 1] = pairs[:, None], pairs
    pair = np.arange(100, dtype=np.uint8)
    ends = np.where(pair == 0, 2, pair % 10 == 0).astype(np.uint8)
    # 100*high + low ends in the zeros of low, then, if low is 0, of high
    trailing = ends + (ends == 2) * ends[:, None]
    return quads.view(np.uint32).ravel(), trailing.ravel()


def _digit_masks() -> tuple[np.ndarray, np.ndarray]:
    """Row 18*point + shown: the bytes of the cell that hold a digit before
    the point, and those that hold one after it."""
    point, shown, byte = np.ogrid[:18, :18, :32]
    j = byte - _DIGITS_AT
    before = (j >= 0) & (j <= point) & (j < shown)
    after = (j >= point + 2) & (j <= shown)
    return tuple((m * np.uint8(255)).reshape(-1, 32) for m in (before, after))


def _affixes() -> tuple[np.ndarray, np.ndarray]:
    """Row 2*layout + (point < 17): the cell's bytes other than its digits;
    and the lengths of each layout's prefix and suffix."""
    affixes = []
    for x in range(-6, 17):
        prefix = "0." + "0" * (-x - 1) if -4 <= x < 0 else ""
        suffix = "e-0%d" % -x if x < -4 else ""
        affixes += [(prefix, suffix, max(x, 0)), ("-" + prefix, suffix, max(x, 0))]
    affixes += [("0", "", None), ("-0", "", None), ("", "", None)]
    rows = []
    for prefix, suffix, point in affixes:
        row = (prefix.rjust(_DIGITS_AT, "\0").ljust(_SUFFIX_AT, "\0") + suffix).ljust(32, "\0")
        dotted = row if point is None else row[:8 + point] + "." + row[9 + point:]
        rows += [row, dotted]
    lengths = np.array([(len(prefix), len(suffix)) for prefix, suffix, _ in affixes])
    return np.frombuffer("".join(rows).encode(), np.uint8).reshape(-1, 32), lengths


_DIGIT_GROUPS, _TRAILING_ZEROS = _digit_tables()
_BEFORE_POINT, _AFTER_POINT = _digit_masks()
_AFFIXES, _AFFIX_LENGTHS = _affixes()


def _times_pow10(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi = fl(a * 10**p) and hi + lo = a * 10**p exactly, by
    Dekker's two-product (Numer. Math. 18, 224, 1971); a * 10**p must
    neither overflow nor underflow."""
    b, b_hi, b_lo = _POW10[p], _POW10_HI[p], _POW10_LO[p]
    hi = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _decade_shift(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 as hi + lo lies below, in or above [1e16, 1e17)."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.intp) - below


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each a >= 0: the significand of its 17-digit rounding, half to
    even, that rounding's decimal exponent X, and whether both are exact,
    which they are wherever X lies in [-6, 16].

    For such X, 10**(16 - X) is an exact double and hi + lo is
    a * 10**(16 - X) exactly.  hi >= 1e16 > 2**53 is an even integer, so
    hi + rint(lo) rounds that product half to even, as '%.17g' does.
    """
    near = (a >= 1e-7) & (a < 1e18)
    # log10 sees no 0, inf or nan; 2.0 is no power of ten
    safe = np.where(near, a, 2.0)
    exp10 = np.clip(np.floor(np.log10(safe)), -6, 16).astype(np.intp)
    hi, lo = _times_pow10(safe, 16 - exp10)
    # floor(log10) can be one off next to a power of ten: correct it once
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    exp10[edge] += _decade_shift(hi[edge], lo[edge])
    fast = near & (exp10 >= -6) & (exp10 <= 16)
    edge = edge[fast[edge]]
    hi[edge], lo[edge] = _times_pow10(safe[edge], 16 - exp10[edge])
    fast[edge] = _decade_shift(hi[edge], lo[edge]) == 0
    sig = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # no double in [1e-6, 1e17) rounds up to a power of ten at 17 digits;
    # one that did would go to _fmt
    return sig, exp10, fast & (sig < 10**17)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for each float64 v in x, as a (rows, width) uint8 matrix
    whose zero bytes are to be dropped.

    Zeros and the cells _significands makes exact are laid out from the
    tables above; _fmt formats the rest (|v| < 1e-6, |v| >= 1e17, inf, nan).
    """
    a = np.abs(x)
    sig, exp10, fast = _significands(a)
    lead, rest = np.divmod(sig, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    quads = [lead, *np.divmod(upper, 10**4), *np.divmod(lower, 10**4)]
    # the digits at bytes 7..23 of rows 1..n; row 0 stays zero
    digits = np.zeros((len(x) + 1, 32), np.uint8)
    for i, quad in enumerate(quads, start=1):
        digits.view(np.uint32)[1:, i] = _DIGIT_GROUPS[quad]
    trailing = _TRAILING_ZEROS[quads[4]]
    zeros = quads[4] == 0
    for quad in quads[3:0:-1]:
        trailing += zeros * _TRAILING_ZEROS[quad]
        zeros &= quad == 0
    kept = 17 - trailing.astype(np.intp)
    whole = np.where(exp10 >= 0, exp10 + 1, 0)
    # an integer shows the zeros of its own digits and has no point
    shown = np.where(fast, np.maximum(kept, whole), 0)
    point = np.where(exp10 >= 0, exp10, np.where(exp10 < -4, 0, 17))
    point[kept <= np.maximum(whole, 1)] = 17

    sign = np.signbit(x)
    layout = np.where(fast, 2 * (exp10 + 6) + sign, np.where(a == 0, 46 + sign, 48))
    mask_row = 18 * point + shown
    flat = digits.reshape(-1)
    cells = (
        (flat[32:].reshape(-1, 32) & _BEFORE_POINT.take(mask_row, axis=0))
        | (flat[31:-1].reshape(-1, 32) & _AFTER_POINT.take(mask_row, axis=0))
        | _AFFIXES.take(2 * layout + (point < 17), axis=0)
    )
    prefix, suffix = _AFFIX_LENGTHS[np.bincount(layout, minlength=49) > 0].max(axis=0)
    start, stop = _DIGITS_AT - prefix, _SUFFIX_AT + suffix
    others = np.flatnonzero(~fast & (a != 0))
    texts = [_fmt(v).encode() for v in x[others].tolist()]
    if texts:
        width = max(map(len, texts))
        stop = max(stop, start + width)
        text = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
        cells[others, start:start + width] = text
    return cells[:, start:stop]


#: 10**0 .. 10**19: an integer has as many digits as the powers it reaches.
_POW10_U64 = np.array([10**p for p in range(20)], np.uint64)


def _int_cells(a: np.ndarray) -> np.ndarray:
    """'%d' % v for each integer v in a, as a (rows, width) uint8 matrix
    whose zero bytes are to be dropped.

    |v| as an unsigned 64-bit integer (at most 20 digits) is laid out in
    groups of four digits from _DIGIT_GROUPS, as many groups from the right
    as the widest cell needs; then the leading zeros are masked and a sign
    is put before the first digit.
    """
    if a.dtype.kind == "u":
        mag, neg = a.astype(np.uint64, copy=False), np.zeros(len(a), bool)
    else:
        a = a.astype(np.int64, copy=False)
        neg = a < 0
        # the two's complement ~a + 1 is |a|, also for the least int64
        mag = np.where(neg, ~a.view(np.uint64) + 1, a.view(np.uint64))
    digits = np.maximum(np.searchsorted(_POW10_U64, mag, side="right"), 1)
    width = int((digits + neg).max(initial=1))
    cells = np.empty((len(a), 20), np.uint8)
    words = cells.view(np.uint32)
    for i in range(4, 4 - -(-width // 4), -1):
        mag, group = np.divmod(mag, 10**4)
        words[:, i] = _DIGIT_GROUPS[group]
    cells = cells[:, 20 - width:]
    np.multiply(cells, np.arange(width) >= width - digits[:, None], out=cells)
    cells[np.flatnonzero(neg), width - 1 - digits[neg]] = ord("-")
    return cells


def _column_cells(a: np.ndarray) -> np.ndarray:
    """The cells of one column as a (rows, width) uint8 matrix whose zero
    bytes are to be dropped."""
    if a.dtype.kind == "b":
        # numpy's bytes of bools are those of '%s'
        text = a.astype("S")
        return text.view(np.uint8).reshape(len(text), text.itemsize)
    if a.dtype.kind in "iu":
        return _int_cells(a)
    return _float_cells(a.astype(np.float64, copy=False))


def _csv_block(arrays: list[np.ndarray], start: int) -> bytes:
    distinct = {id(a): a for a in arrays}
    formatted = {k: _column_cells(a[start:start + _CSV_BLOCK_ROWS]) for k, a in distinct.items()}
    cells = [formatted[id(a)] for a in arrays]
    block = np.empty((len(cells[0]), sum(c.shape[1] + 1 for c in cells)), np.uint8)
    end = 0
    for c in cells:
        block[:, end:end + c.shape[1]] = c
        end += c.shape[1] + 1
        block[:, end - 1] = ord(",")
    block[:, -1] = ord("\n")
    # numpy drops the zero bytes without the GIL, where bytes.translate
    # holds it, so the writer's threads strip their blocks at once
    flat = block.reshape(-1)
    return flat[flat != 0].tobytes()


def _write_csv(path: Path, comments: list[str], columns: dict) -> str:
    """Write columns as CSV and return the SHA-256 hex digest of the file.

    Every cell reads as _fmt would write it.  Bool columns take numpy's own
    bytes, and integer columns go through _int_cells.  Float columns go
    through _float_cells: 0, -0 and every value whose 17-digit rounding has
    decimal exponent in [-6, 16] are laid out by array arithmetic from the
    significand _significands rounds exactly (hi + lo = |v| * 10**p
    exactly, and hi is an even integer above 2**53, so hi + rint(lo) rounds
    half to even like '%.17g'); _fmt formats the rest, |v| < 1e-6,
    |v| >= 1e17, inf and nan, one cell at a time.
    Rows are formatted _CSV_BLOCK_ROWS at a time by one plain thread per
    CPU the process may use (feedback.worker_threads), at most one per
    block, which take the blocks' indices from one FIFO queue; an array
    given for several columns is formatted once per block.  The calling
    thread writes and hashes the finished blocks in file order; the file
    write and hashlib release the GIL, so that work overlaps the formatting.
    At most one block more than there are threads is in flight, queued or
    being formatted.
    """
    arrays = [np.asarray(col) for col in columns.values()]
    if len({len(a) for a in arrays}) != 1:
        lengths = ", ".join(f"{name}={len(a)}" for name, a in zip(columns, arrays))
        raise ValueError(f"CSV columns differ in length: {lengths}")
    header = "".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n"
    starts = range(0, len(arrays[0]), _CSV_BLOCK_ROWS)
    workers = min(feedback.worker_threads(), len(starts))
    # block k's bytes, or the exception formatting it raised, once done[k] is set
    blocks: list = [None] * len(starts)
    done = [threading.Event() for _ in starts]
    tasks = queue.SimpleQueue()

    def format_blocks() -> None:
        while (k := tasks.get()) is not None:
            try:
                blocks[k] = _csv_block(arrays, starts[k])
            except BaseException as exc:  # raised again by the caller
                blocks[k] = exc
            done[k].set()

    def finished(k: int) -> bytes:
        done[k].wait()
        data, blocks[k] = blocks[k], None
        if isinstance(data, BaseException):
            raise data
        return data

    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(data: bytes) -> None:
            fh.write(data)
            digest.update(data)

        put(header.encode())
        threads: list[threading.Thread] = []
        try:
            for _ in range(workers):
                threads.append(threading.Thread(target=format_blocks))
                threads[-1].start()
            for k in range(len(starts) + workers):
                if k < len(starts):
                    tasks.put(k)
                if k >= workers:
                    put(finished(k - workers))
        finally:
            # after an error or an interrupt the blocks no thread has taken
            # are dropped, and the threads are joined before the caller
            # removes the file
            try:
                while True:
                    tasks.get_nowait()
            except queue.Empty:
                pass
            for _ in threads:
                tasks.put(None)
            for thread in threads:
                thread.join()
    return digest.hexdigest()


def _config_echo(config: EngineConfig, with_path: bool = False) -> dict:
    echo = dataclasses.asdict(config)
    if with_path:
        echo["output_path"] = str(echo["output_path"]) if echo["output_path"] else None
    else:
        # keep the summary byte-identical across output locations
        del echo["output_path"]
    return echo


class _Run:
    """Creates the output directory and tracks the files written to it and
    their digests, so failures can clean up.

    A path is registered before it is written, so cleanup also removes a
    file whose write failed partway.  The directories the run created, the
    output directory and any missing parents, are removed by cleanup when
    they are left empty.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        # innermost first, as cleanup removes them
        self.created = list(
            itertools.takewhile(lambda d: not d.exists(), [out_dir, *out_dir.parents])
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        self.files: list[Path] = []
        self.digests: dict[str, str] = {}

    def _register(self, name: str) -> Path:
        path = self.out_dir / name
        self.files.append(path)
        return path

    def csv(self, name: str, comments: list[str], columns: dict) -> None:
        path = self._register(name)
        self.digests[name] = _write_csv(path, UNIT_COMMENTS + comments, columns)

    def json(self, name: str, payload: dict) -> None:
        data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        self._register(name).write_bytes(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()

    def cleanup(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)
        for directory in self.created:
            if any(directory.iterdir()):
                break
            directory.rmdir()


def _emit_trajectory(run: _Run, config: EngineConfig) -> None:
    # row 0 holds the start: zero means, readouts and ledger
    rec = run_trajectory(config)
    run.csv(
        "trajectory.csv",
        [
            "one monitored trajectory (noise stream 0)",
            "row k: state at t_k; r1,r2,dW,W_cum belong to the step ending at t_k",
            f"policy={config.policy} scheme={config.scheme}",
        ],
        {
            "t": np.arange(config.n_steps + 1) * config.resolved_dt,
            "q1": rec.q1[:, 0],
            "q2": rec.q2[:, 0],
            "q3": rec.cov[:, 0],
            "q4": rec.cov[:, 1],
            "q5": rec.cov[:, 2],
            "r1": rec.r1[:, 0],
            "r2": rec.r2[:, 0],
            "dW": rec.increment[:, 0],
            "W_cum": rec.ledger[:, 0],
        },
    )


def _run_single_shot(config: EngineConfig, run: _Run) -> dict:
    rng = NoiseSource(config.seed).generator()
    r, theta = sample_outcomes(config.nbar, config.n_traj, rng)
    work = r * r
    mean, _, se = _moments(work)
    expect = 1.0 + config.nbar
    run.csv(
        "cycles.csv",
        ["single-shot cycles: full feedback, work = r**2"],
        {"r": r, "theta": theta, "wait_time": theta, "work": work},
    )
    heat_mc = mean - config.nbar
    return {
        "results": {
            "mean_work": mean,
            "stderr": se,
            "expected_mean_work": expect,
            "measurement_heat_mc": heat_mc,
            "work_conversion_efficiency_mc": mean / expect,
        },
        "checks": {
            "mean_work_within_3se": abs(mean - expect) <= 3.0 * se,
            "added_quantum_within_3se": abs(heat_mc - 1.0) <= 3.0 * se,
        },
    }


def _binary_work_se(nbar: float, r0: float, n: int) -> float:
    """Closed-form standard error of the mean of n binary works.

    With s = 1 + nbar, p0 = P(r >= r0/2) and m1 = sqrt(pi*s)*erfc(r0/(2*sqrt(s))),
    <W'> = r0*m1 and <W'**2> = r0**2 * (4*s*p0 - 2*r0*m1).  r0 and n stay
    outside the square root, so that r0**2 and the variance do not underflow.
    Past r0/sqrt(s) ~ 54, p0 and m1 are subnormal and the variance can round
    to <= 0; Var(W'/r0) >= m1**2 * (1 - p0) / p0, which holds for any W'
    that is 0 with probability 1 - p0, bounds it from below there.
    """
    s = 1.0 + nbar
    p0 = binary_p0(nbar, r0)
    m1 = math.sqrt(math.pi * s) * erfc(r0 / (2.0 * math.sqrt(s)))
    variance = 4.0 * s * p0 - 2.0 * r0 * m1 - m1 * m1
    # p0 may underflow to 0 where m1 does not; a larger p0 keeps a lower bound
    floor = m1 * math.sqrt(1.0 - p0) / math.sqrt(max(p0, 5e-324))
    return r0 * max(math.sqrt(max(variance, 0.0)), floor) / math.sqrt(n)


def _run_binary(config: EngineConfig, run: _Run) -> dict:
    rng = NoiseSource(config.seed).generator()
    r, theta = sample_outcomes(config.nbar, config.n_traj, rng)
    work = extract_work_binary(r, config.r0)
    mean, _, se = _moments(work)
    closed = binary_average_work(config.nbar, config.r0)
    # the gates take both standard errors from the closed form: when no
    # sample clears r0/2, the samples' own standard errors are 0
    closed_se = _binary_work_se(config.nbar, config.r0, config.n_traj)
    p0_mc = float(np.mean(r >= 0.5 * config.r0))
    p0 = binary_p0(config.nbar, config.r0)
    p0_se = math.sqrt(p0 * (1.0 - p0)) / math.sqrt(config.n_traj)
    u_best, eta_best = max_binary_efficiency()
    run.csv(
        "cycles.csv",
        [f"binary feedback cycles at r0={_fmt(config.r0)}"],
        {"r": r, "theta": theta, "work": work},
    )
    return {
        "results": {
            "mean_work_mc": mean,
            "stderr": se,
            "mean_work_closed_form": closed,
            "stderr_closed_form": closed_se,
            "efficiency_closed_form": binary_efficiency(config.nbar, config.r0),
            "p0_mc": p0_mc,
            "p0_closed_form": p0,
            "p0_stderr_closed_form": p0_se,
            "thermo_efficiency": binary_thermo_efficiency(
                config.nbar, config.r0, config.demon_kbtd
            ),
            "grid_max_efficiency": eta_best,
            "grid_argmax_u": u_best,
        },
        "checks": {
            "binary_mean_within_3se": abs(mean - closed) <= 3.0 * closed_se,
            "p0_within_3se": abs(p0_mc - p0) <= 3.0 * p0_se,
            "max_efficiency_in_band": 0.84 <= eta_best <= 0.86,
        },
    }


def _run_continuous(
    config: EngineConfig, run: _Run
) -> tuple[dict, WorkStatistics, float | None]:
    # also the rate tau/sigma of the exact work law at t_final: inf for the
    # point mass at W = 0, None where no such law applies
    _emit_trajectory(run, config)
    stats = run_ensemble(config)
    run.csv(
        "work_samples.csv",
        [f"work per trajectory at t={_fmt(config.t_final)} under policy={config.policy}"],
        {"trajectory": np.arange(config.n_traj), "work": stats.samples},
    )
    results = {"mean_work": stats.mean, "stderr": stats.stderr, "variance": stats.variance,
               "t": stats.t}
    checks: dict = {}
    expected, rate, rounding = None, None, 0.0
    if config.policy == "none":
        expected = ledger_mean_work(config)
        # its n_steps additions round: all that moves a ledger without noise
        rounding = config.n_steps * 2.0**-52 * expected
    elif config.tau1 == config.tau2:
        _, means, rates = sigma_schedule(config, policy=config.policy)
        k = config.step_index(config.t_final)
        expected, rate = float(means[k]), float(rates[k])
    if expected is not None:
        results["expected_mean_work"] = expected
        bound = 3.0 * stats.stderr + rounding
        checks["mean_work_within_3se"] = abs(stats.mean - expected) <= bound
    if rate is not None:
        if stats.samples.size < KS_MIN_SAMPLES:
            results["ks_not_applicable"] = (
                f"need at least {KS_MIN_SAMPLES} samples, got {stats.samples.size}"
            )
        elif rate == math.inf:
            # KS assumes a continuous law; this one is a point mass at W = 0
            results["ks_not_applicable"] = "the exact work law is a point mass at W = 0"
        else:
            ks = ks_compare(stats.samples, lambda w: exact_work_cdf(w, rate))
            results.update({"ks_statistic": ks.statistic, "ks_pvalue_bound": ks.pvalue})
            checks["work_distribution_ks_pass_1pct"] = ks.passed
    out = {"results": results, "checks": checks, "layout": ensemble_layout(config)}
    return out, stats, rate


def _run_classical(config: EngineConfig, run: _Run) -> dict:
    samples = classical_cycle(config, NoiseSource(config.seed).generator())
    kbt = config.kbt
    run.csv(
        "work_samples.csv",
        [f"classical Brownian cycles: k={_fmt(config.spring_k)}, kBT={_fmt(kbt)}"],
        {"work": samples},
    )
    expect = 0.5 * kbt
    if kbt > 0.0:
        # in units of kbt, or the variance of samples near 1e-300 underflows
        mean, _, se = _moments(samples / kbt)
        mean, se = mean * kbt, se * kbt
        checks = {"classical_mean_within_3se": abs(mean - expect) <= 3.0 * se}
    else:
        mean, se = float(np.max(samples)), 0.0
        checks = {"zero_work_at_zero_temperature": bool(np.all(samples == 0.0))}
    return {
        "results": {"mean_work": mean, "stderr": se, "expected_mean_work": expect},
        "checks": checks,
    }


def _preset_figure_2b(config: EngineConfig, run: _Run) -> dict:
    out, stats, rate = _run_continuous(config, run)
    counts, edges = np.histogram(stats.samples, bins="fd")  # Freedman-Diaconis bins
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = counts / (config.n_traj * np.diff(edges))
    columns = {"bin_center": centers, "count": counts, "density": density}
    if rate < math.inf:
        columns["exact_pdf"] = exact_work_pdf(centers, rate)
        comment = "work histogram with the exact exponential overlay"
    else:
        # a point mass at W = 0 has no density to overlay
        mean = out["results"]["expected_mean_work"]
        out["results"]["exact_pdf_not_applicable"] = (
            f"sigma({config.t_final})/tau = {mean}: all probability mass at W = 0"
        )
        comment = "work histogram; no exact overlay: all probability mass at W = 0"
    run.csv("histogram.csv", [comment], columns)
    return out


def _preset_figure_2c(config: EngineConfig, run: _Run) -> dict:
    grid = [0.5, 1.0, 2.5, 5.0]
    series = mean_work_curve(config, grid)
    oracle = sigma_schedule(config)[1][config.step_index(grid)]
    run.csv(
        "mean_work.csv",
        ["terminal-feedback mean work versus observation time"],
        {"t": series.t, "mc_mean": series.mean, "mc_stderr": series.stderr,
         "sigma_over_tau": oracle},
    )
    ok = bool(np.all(np.abs(series.mean - oracle) <= 3.0 * series.stderr))
    return {
        "results": {"t": list(series.t), "mc_mean": list(series.mean)},
        "checks": {"mean_curve_within_3se": ok},
        "layout": ensemble_layout(config),
    }


def _preset_figure_2f(config: EngineConfig, run: _Run) -> dict:
    t_grid = np.round(np.arange(0.0, config.t_final + 1e-9, 0.25), 10)
    nu = sigma_schedule(config)[0][config.step_index(t_grid)]
    j_tau = nu * nu  # J = nu**2/tau
    run.csv(
        "power.csv",
        ["engine power per measurement rate, J(t)*tau"],
        {"t": t_grid, "J_tau": j_tau},
    )
    checks = {
        "power_monotone_decreasing": bool(np.all(np.diff(j_tau) <= 1e-12)),
        "power_reaches_quarter": bool(abs(j_tau[-1] - 0.25) < 1e-3),
    }
    return {"results": {"J_tau_final": float(j_tau[-1])}, "checks": checks}


def _preset_figure_s2(config: EngineConfig, run: _Run) -> dict:
    nbar, r0 = np.meshgrid(np.linspace(0.0, 4.0, 41), np.linspace(0.05, 5.0, 100), indexing="ij")
    nbar, r0 = nbar.ravel(), r0.ravel()  # one row per (nbar, r0), nbar-major
    u_best, eta_best = max_binary_efficiency()
    run.csv(
        "efficiency_grid.csv",
        ["binary-feedback efficiency over (nbar, r0)"],
        {"nbar": nbar, "r0": r0, "efficiency": binary_efficiency(nbar, r0)},
    )
    return {
        "results": {"grid_max_efficiency": eta_best, "grid_argmax_u": u_best},
        "checks": {"max_efficiency_in_band": 0.84 <= eta_best <= 0.86},
    }


def _preset_figure_s3(config: EngineConfig, run: _Run) -> dict:
    grid = np.round(np.arange(1.0, config.t_final + 1e-9, 1.0), 10)
    columns: dict = {"t": grid}
    finals: dict = {}
    ratios = (1.0, 0.9, 1.2)
    # the three ensembles step on the same normals, drawn once
    configs = [dataclasses.replace(config, tau2=config.tau1 * ratio) for ratio in ratios]
    for ratio, series in zip(ratios, efficiency_series(configs, grid)):
        tag = ("%g" % ratio).replace(".", "p")
        columns[f"eta_ratio_{tag}"] = series.eta
        columns[f"stderr_ratio_{tag}"] = series.stderr
        finals[ratio] = (float(series.eta[-1]), float(series.stderr[-1]))
    run.csv(
        "efficiency_series.csv",
        ["per-step work conversion efficiency for tau2/tau1 in {1, 0.9, 1.2}"],
        columns,
    )
    eta_sym, se_sym = finals[1.0]
    ordered = all(
        eta_sym - finals[r][0] > 3.0 * math.hypot(se_sym, finals[r][1])
        for r in (0.9, 1.2)
    )
    return {
        "results": {
            "eta_final": {str(k): v[0] for k, v in finals.items()},
            "stderr_final": {str(k): v[1] for k, v in finals.items()},
        },
        "checks": {
            "unit_efficiency_when_symmetric": abs(1.0 - eta_sym) <= 3.0 * se_sym + 1e-12,
            "efficiency_ordering": bool(ordered),
        },
        "layout": ensemble_layout(config),
    }


_RUNNERS = {
    "single-shot": _run_single_shot,
    "binary": _run_binary,
    "continuous": lambda config, run: _run_continuous(config, run)[0],
    "classical": _run_classical,
    "figure-2b": _preset_figure_2b,
    "figure-2c": _preset_figure_2c,
    "figure-2f": _preset_figure_2f,
    "figure-S2": _preset_figure_s2,
    "figure-S3": _preset_figure_s3,
}


#: The manifest's layout keys, 0 for a run without an ensemble.
NO_ENSEMBLE = ("workers", "scratch_bytes", "chunks", "chunk_width")


def _peak_rss_mb() -> dict[str, float] | None:
    """The peak resident set of this process (``process``) and of the
    largest of the ensemble workers it has forked (``workers``; 0 if none),
    in MB, as ``getrusage`` reports them; None where it does not."""
    if resource is None:
        return None
    unit = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss: bytes there, else kB
    return {
        name: resource.getrusage(who).ru_maxrss / unit
        for name, who in (("process", resource.RUSAGE_SELF), ("workers", resource.RUSAGE_CHILDREN))
    }


def run_experiment(args: argparse.Namespace) -> int:
    start = time.monotonic()
    config = parse_config(args)
    out_dir = config.output_path or Path(f"qmengine-out-{args.label}")
    run = _Run(out_dir)
    try:
        out = _RUNNERS[args.label](config, run)

        summary = {
            "experiment": args.label,
            "config": _config_echo(config),
            "results": out["results"],
            "checks": out["checks"],
            # a run that no check applies to has not passed
            "all_checks_passed": bool(out["checks"]) and all(out["checks"].values()),
        }
        run.json("summary.json", summary)
        manifest = {
            "artifact": "qmengine",
            "version": __version__,
            "experiment": args.label,
            "config": _config_echo(config, with_path=True),
            "argv": sys.argv[1:],
            "wall_clock_seconds": time.monotonic() - start,
            "noise_streams": STREAM_LAYOUT,
            # the ensemble's workers (the process and the ones it forks), the
            # bytes of their mappings, and their chunks
            **out.get("layout", dict.fromkeys(NO_ENSEMBLE, 0)),
            "peak_rss_mb": _peak_rss_mb(),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "files": dict(run.digests),
        }
        run.json("manifest.json", manifest)
    except BaseException:
        run.cleanup()
        raise
    print(f"{args.label}: wrote {len(run.files)} files to {out_dir}")
    for name, ok in out["checks"].items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    if not out["checks"]:
        print("  [UNCHECKED] no check applies to this configuration")
    return 0 if summary["all_checks_passed"] else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run_experiment(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # the package's configuration errors are ValueErrors; an extreme input
    # that overflows a Python float raises an OverflowError, and one whose
    # arrays do not fit in memory a MemoryError
    except (ValueError, OverflowError, MemoryError, UncertaintyViolationError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
