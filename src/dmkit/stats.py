"""Signal statistics of shaped outputs: exact, sampled, and derived.

exact_class_pmf propagates index distributions down the tree: the top
index is uniform over its information bits; a layer's entry distribution
induces the distribution of each child's parent field, and a child index
is that field joined with uniform information bits. The leaf is one more
step of the same walk, whose fields are the 2-bit class symbols. The walk
goes band by band, skipping bands of count 0, and carries integer counts,
so it is exact; only the final division rounds. Measured dead ends: a
walk that scatters the band counts into a list of 2^u entries and takes
slice sums (1.7 -> 1.7 ms on the bundled tree, 3.4 -> 3.8 ms on the
design benchmark's wide one, min of 15-41 calls in one process); a
bottom-up walk over bit-packed lane integers (no faster).

stats_from_pmf turns a class or magnitude distribution of the fixed
256-QAM labeling (see mapping) into the usual shaped-signal figures: mean
QAM symbol energy, QAM symbol entropy 2H(X) = 2(H(|X|) + 1) with the
unshaped sign and LSB uniform, the maximum spectral efficiency beta at
code rate 1, the rate loss 2H(X) - beta, and the constellation gain
(2^beta - 1) d_min^2 / (6 E) in dB, with d_min = 2 between neighbouring
16-PAM amplitudes.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .bits import BitWord, read_slots, split_symbols
from .ccdm import CcdmCode
from .codec import LutSet, encode_stream, field_slots
from .mapping import AMPLITUDES, CLASS_BITS, PAIR_BASE
from .maxwell import MbDistribution, mb_fit, qam_entropy

DEFAULT_SEED = 12345
_MC_BATCH_WORDS = 1 << 13
D_MIN = 2.0

# Published statistics of the bundled 7-layer 256-QAM configuration with a
# 320-symbol word, used by the comparison report to show deltas.
PUBLISHED_REFERENCE: dict[str, dict[str, object]] = {
    "ccdm": {
        "p_abs": (0.2453, 0.2453, 0.1625, 0.1625, 0.0719, 0.0719, 0.0203, 0.0203),
        "energy": 74.00,
        "two_h": 7.242,
        "beta": 7.169,
        "r_loss": 0.073,
        "gain_db": 1.097,
    },
    "hidm": {
        "p_abs": (0.2376, 0.2376, 0.1684, 0.1684, 0.0757, 0.0757, 0.0183, 0.0183),
        "energy": 74.70,
        "two_h": 7.252,
        "beta": 7.169,
        "r_loss": 0.083,
        "gain_db": 1.056,
    },
    "mb": {
        "p_abs": (0.2628, 0.2355, 0.1891, 0.1360, 0.0877, 0.0506, 0.0262, 0.0121),
        "energy": 68.31,
        "two_h": 7.169,
        "beta": 7.169,
        "r_loss": 0.0,
        "gain_db": 1.444,
    },
}


@dataclass(frozen=True)
class StatsReport:
    """One column of shaped-signal statistics."""

    p_abs: tuple[float, ...]
    energy: float
    two_h: float
    beta: float
    r_loss: float
    gain_db: float

    def as_dict(self) -> dict[str, float]:
        """The p_abs values, then the scalars in _SCALAR_ROWS order, then d_min."""
        out = {f"p_abs_{2 * i + 1}": p for i, p in enumerate(self.p_abs)}
        out.update({attr: getattr(self, attr) for _, attr, _, _ in _SCALAR_ROWS})
        out["d_min"] = D_MIN
        return out


def exact_class_pmf(lutset: LutSet) -> tuple[float, ...]:
    """Class distribution of the shaped output under uniform input bits.

    One count per band (the 2^s indices under one parent field) is carried
    down, summed over the layer's LUTs: the top layer's one band counts 1,
    a child's band counts how often its field is sent, and a band of count
    0 is skipped. The counts are exact integers, divided once at the end.

    The walk reads each layer's field columns (codec.field_slots), one
    16-bit slot per entry: the children's r-bit parent fields above the
    leaf, class symbols at the leaf, whose field totals are the class
    counts.
    """
    spec = lutset.spec
    counts = [1]  # the top layer's one band
    widths = [child.parent_bits for child in spec.layers[1:]] + [CLASS_BITS]
    for layer, lut, width in zip(spec.layers, lutset.luts, widths):
        size, bands, counts = 1 << layer.info_bits, counts, [0] * (1 << width)
        for column in field_slots(lut, width):
            fields = read_slots(column.to_bytes(2 * len(lut.entries), "big"))
            for start, n in zip(range(0, len(fields), size), bands):
                if n:
                    for f in fields[start : start + size]:
                        counts[f] += n
    total = sum(counts)
    return tuple(n / total for n in counts)


def _sample_batches(n_info: int, n_words: int, seed: int) -> Iterator[BitWord]:
    """The n_words random n_info-bit words of random.Random(seed), in draw order.

    Each run of up to _MC_BATCH_WORDS words comes as one BitWord, so a
    caller holds one run at a time.
    """
    rng = random.Random(seed)
    for first in range(0, n_words, _MC_BATCH_WORDS):
        batch = min(_MC_BATCH_WORDS, n_words - first)
        text = "".join([format(rng.getrandbits(n_info), f"0{n_info}b") for _ in range(batch)])
        yield BitWord(int(text, 2), batch * n_info)


def monte_carlo_pmf(
    lutset: LutSet,
    n_words: int,
    seed: int = DEFAULT_SEED,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Class distribution sampled from encodes of random words.

    Returns (estimate, standard error of the estimate) per class; words
    are independent, so the error is the sample stderr of the per-word
    class fractions, counted by bytes.count on each word's slice of the
    class symbols. The words go through encode_stream, _MC_BATCH_WORDS a
    call (_sample_batches), so memory stays bounded. Deterministic for a
    fixed seed.
    """
    if n_words < 1:
        raise ValueError("n_words must be >= 1")
    n_info, n_pam = lutset.spec.n_info, lutset.spec.n_pam
    n_classes = 1 << CLASS_BITS
    sums = [0.0] * n_classes
    sq_sums = [0.0] * n_classes
    for words in _sample_batches(n_info, n_words, seed):
        symbols = split_symbols(encode_stream(lutset, words), CLASS_BITS)
        for k in range(words.width // n_info):
            for c in range(n_classes):
                frac = symbols.count(c, k * n_pam, (k + 1) * n_pam) / n_pam
                sums[c] += frac
                sq_sums[c] += frac * frac
    means = [s / n_words for s in sums]
    if n_words == 1:
        stderr = [0.0] * n_classes
    else:
        stderr = [
            math.sqrt(max(sq_sums[c] - n_words * means[c] ** 2, 0.0) / (n_words - 1) / n_words)
            for c in range(n_classes)
        ]
    return tuple(means), tuple(stderr)


def check_pmf(pmf: Sequence[float]) -> None:
    """Raise ValueError unless every entry is >= 0 and the entries sum to 1.

    Both tests are written so that a NaN entry fails them.
    """
    if not all(p >= 0 for p in pmf):
        raise ValueError(f"pmf has negative or NaN entries: {pmf}")
    if not abs(sum(pmf) - 1.0) <= 1e-9:
        raise ValueError(f"pmf sums to {sum(pmf)}, expected 1")


def _beta(n_info: int, n_pam: int) -> float:
    """Spectral efficiency of n_info bits on n_pam PAM symbols plus the uniform sign and LSB."""
    return 2.0 * (2 + n_info / n_pam)


def stats_from_pmf(
    pmf: Sequence[float],
    *,
    n_info: int | None = None,
    n_pam: int | None = None,
) -> StatsReport:
    """Shaped-signal statistics from a class or magnitude distribution.

    pmf with 4 entries is a class distribution over PAIR_BASE (the unshaped
    LSB splits each class evenly over its pair); with 8 entries it is
    already the distribution over AMPLITUDES. beta is 2(2 + n_info/n_pam)
    when the word sizes are given, else 2H(X) (a zero-rate-loss reference).
    """
    check_pmf(pmf)
    if len(pmf) == len(PAIR_BASE):
        p_abs = tuple(p / 2 for p in pmf for _ in range(2))
    elif len(pmf) == len(AMPLITUDES):
        p_abs = tuple(pmf)
    else:
        raise ValueError(
            f"pmf length {len(pmf)} is neither {len(PAIR_BASE)} classes nor {len(AMPLITUDES)} magnitudes"
        )
    energy = 2.0 * sum(p * a * a for p, a in zip(p_abs, AMPLITUDES))
    two_h = qam_entropy(p_abs)
    if (n_info is None) != (n_pam is None):
        raise ValueError("give both n_info and n_pam, or neither")
    beta = two_h if n_info is None else _beta(n_info, n_pam)
    r_loss = two_h - beta
    gain_db = 10.0 * math.log10((2.0**beta - 1.0) * D_MIN * D_MIN / (6.0 * energy))
    return StatsReport(p_abs=p_abs, energy=energy, two_h=two_h, beta=beta, r_loss=r_loss, gain_db=gain_db)


def stats_for_lutset(lutset: LutSet) -> StatsReport:
    """Exact statistics of the tree matcher's output."""
    spec = lutset.spec
    return stats_from_pmf(exact_class_pmf(lutset), n_info=spec.n_info, n_pam=spec.n_pam)


def stats_for_ccdm(code: CcdmCode) -> StatsReport:
    """Statistics of a constant-composition code (class pmf = counts/n, exact)."""
    n = code.composition.n
    class_pmf = tuple(c / n for c in code.composition.counts)
    return stats_from_pmf(class_pmf, n_info=code.k, n_pam=n)


def stats_for_mb(dist: MbDistribution) -> StatsReport:
    """Statistics of a Maxwell-Boltzmann reference (zero rate loss)."""
    return stats_from_pmf(dist.p_abs)


def comparison_report(
    lutset: LutSet,
    code: CcdmCode,
    mb_target_two_h: float | None = None,
) -> dict[str, StatsReport]:
    """The three columns side by side: constant-composition, tree, MB.

    The MB reference is fitted to mb_target_two_h, defaulting to the
    tree's beta so all columns compare at equal rate.
    """
    spec = lutset.spec
    if mb_target_two_h is None:
        mb_target_two_h = _beta(spec.n_info, spec.n_pam)
    return {
        "ccdm": stats_for_ccdm(code),
        "hidm": stats_for_lutset(lutset),
        "mb": stats_for_mb(mb_fit(mb_target_two_h)),
    }


_SCALAR_ROWS = (
    ("E", "energy", "{:10.2f}", "{:+.2f}"),
    ("2H(X) (bpcu)", "two_h", "{:10.3f}", "{:+.3f}"),
    ("beta (bpcu)", "beta", "{:10.3f}", "{:+.3f}"),
    ("R_loss (bpcu)", "r_loss", "{:10.3f}", "{:+.3f}"),
    ("G (dB)", "gain_db", "{:10.3f}", "{:+.3f}"),
)


def render_text(reports: Mapping[str, StatsReport]) -> str:
    """Aligned text table; deltas from PUBLISHED_REFERENCE in parentheses where known."""
    names = list(reports)
    width = 22

    def cell(value: float, fmt: str, dfmt: str, ref_value: float | None) -> str:
        txt = fmt.format(value)
        if ref_value is not None:
            txt += f" ({dfmt.format(value - ref_value)})"
        return txt.ljust(width)

    lines = ["statistic".ljust(16) + "".join(n.ljust(width) for n in names)]
    n_amps = len(next(iter(reports.values())).p_abs)
    for i in range(n_amps):
        amp = 2 * i + 1
        row = f"P|X|({amp})".ljust(16)
        for name in names:
            ref = PUBLISHED_REFERENCE.get(name, {}).get("p_abs")
            ref_value = ref[i] if ref is not None else None  # type: ignore[index]
            row += cell(reports[name].p_abs[i], "{:10.4f}", "{:+.4f}", ref_value)
        lines.append(row)
    for label, attr, fmt, dfmt in _SCALAR_ROWS:
        row = label.ljust(16)
        for name in names:
            ref_value = PUBLISHED_REFERENCE.get(name, {}).get(attr)
            row += cell(getattr(reports[name], attr), fmt, dfmt, ref_value)  # type: ignore[arg-type]
        lines.append(row)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def render_csv(reports: Mapping[str, StatsReport]) -> str:
    """Machine-readable CSV, one row per signal."""
    buf = io.StringIO()
    first = next(iter(reports.values()))
    fieldnames = ["signal"] + list(first.as_dict())
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for name, report in reports.items():
        row: dict[str, object] = {"signal": name}
        row.update({k: repr(v) for k, v in report.as_dict().items()})
        writer.writerow(row)
    return buf.getvalue()
