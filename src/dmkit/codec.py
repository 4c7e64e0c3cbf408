"""Fixed-length matching and dematching over a synthesized LUT set.

encode maps an n_info-bit information word to an n_out-bit shaped word:
the top LUT is indexed by its information bits alone; every other LUT by
the r bits received from its parent (high part of the index) concatenated
with its own information bits (low part). The shaped word is the
concatenation of the leaf outputs in LUT order.

decode runs the inverse (invDM) tables, LutSet.decode_slots, upward and
is exact: decode(encode(w)) == w for every word. A shaped word that is
not a codec output fails with InvalidWord at the first layer where a
chunk or reassembled word has no table entry; no correction is attempted.

One kernel pair serves single words and streams. It takes a run of words
through the tree one layer at a time, as the LUTs of a layer work side by
side. A layer's values are word-major, LUT q of word k at k*T + q, and
held as big-endian 16-bit slots (an index or a LUT word has at most
bits.MAX_SYMBOL_BITS bits): one bytes object per run of words, read into an
array("H") for the lookups. Each LUT costs one tuple lookup; the rest is
whole-run bytes and integer operations. encode/decode are its one-word
case. encode_stream/decode_stream cut the stream into chunks of about
CHUNK_LOOKUPS table lookups, a multiple of 8 words so that every chunk
starts on a whole byte, and write each chunk's output bytes in place into
one buffer of the whole output; the whole stream is still held in memory.
A decode chunk with a table miss is re-run word by word, so a stream
raises the InvalidWord of its first invalid word.

encode cuts the information fields with one slice plan per group of
layers with the same s (LutSet.info_groups) and bit planes. A slice plan
is one operator.itemgetter of every per-word slice, so one C call cuts
and one join joins a group's layer runs out of the run's binary text, as
bytes 0 and 1. The joined run's s bit planes, the strided slices that
hold bit j of every field, are read as integers and shifted and or-ed
into the byte lanes of the fields' 16-bit slots, two lanes when s > 8.
The lookups of an upper layer in LutSet.encode_slots give each LUT's t
child fields, already in their slots and shifted left by the child's s:
one join of them and one integer or with the children's information
fields are the next layer's indices. The leaf's lookups give its entries
as binary text, joined and read as one integer. decode splits the leaf
outputs in one call. The lookups of a layer in LutSet.decode_slots give
each LUT's record: the r-bit value its parent sent, in a 16-bit slot,
then its s information bits as text, 2 + s bytes; a word the table never
emits gives None, which the join rejects. The siblings' values become
their parent's words by whole-integer shifts, ands and subtractions. The
information bits are gathered in encode's order (LutSet.info_groups), by
one join of a group's records and s strided copies, and put back in word
order by the inverse slice plan, LutSet.join_plan. No mirror table is
built. A stream builds the plans of its chunk size once, before it
forks, so its children inherit them, and a shorter last chunk builds its
own. A single word reads LutSet.one_word, its plans (7 slices each way
on the bundled tree) and leaf split masks, built once by the same
builders: this took one-word encode and decode from 31.3 and 32.5 us to
26.7 and 25.8 us. A 128-word chunk of the bundled tree, about 16k
lookups, takes 1.15 ms to encode, of which 0.33 ms cuts the information
fields, and 1.05 ms to decode, of which 0.28 ms gathers and rejoins the
information bits; before the planes and plans the first two were 1.39
and 0.55 ms, and with padded records gathered in layer order the last
two were 1.15 and 0.38 ms (one process on one CPU, medians of 31
alternating rounds, Python 3.11, 2-core x86_64 VM). Building the chunk's
plans takes about 0.15 ms to encode and 0.19 ms to decode.

Measured dead ends: lookups by str.translate (about 37 ns a character,
against 16-26 ns for a comprehension lookup); tables of ints turned into
slots by array("H", list) (about 39 ns an element, which is why the
tables hold pooled bytes objects that one join concatenates);
map(table.__getitem__, ...) in place of the comprehension (slower on a
chunk and on one word); the leaf's entries as slots packed by the bits
gather instead of joined as text (2.5x slower on one word, no faster on
a chunk); a gather of each layer's information bits (it doubled one-word
decode); one buffer for all groups' gathered bits; join_plan built by
sorting info_plan's slices (2.2x slower); at fanin 2, widening each
sibling's byte into a slot instead of the subtraction (about 1.5 us a
layer slower on one word); bit planes for the 10-bit leaf split of
decode (about 2.3x slower than bits.split_symbols on 8,192 fields) and
for reading binary text as an integer (about 1.4x slower than
int(text, 2)).

Words in a stream are independent, so a long stream runs on every usable
CPU. Its chunks are split into contiguous ranges of at least
RANGE_CHUNKS chunks, one per CPU in os.sched_getaffinity: this process
runs the first range and a forked child each other one. The output
buffer is an anonymous shared mmap made before the fork, so each range
writes its bytes where they belong and a child reports only its exit
status. The LutSet views a direction reads are built before the fork
too, so that the children inherit them instead of building them. A
stream runs in this process alone when it has fewer than 2 * RANGE_CHUNKS
chunks, when only one CPU is usable, where os.fork is missing, and while
another thread runs (forking then is unsafe); a range whose fork fails
runs here too. A range whose child fails is re-run here after the ranges
before it, over the bytes the child left, so outputs and errors are those
of the one-process path: a stream with invalid words raises the
InvalidWord of its first one. No child outlives the call. The children's
memory is not counted in this process's ru_maxrss but in its
RUSAGE_CHILDREN.

Both directions are pure functions of an immutable LutSet and may be used
concurrently.
"""

from __future__ import annotations

import mmap
import os
import threading
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from .bits import BitWord, read_slots, split_symbols
from .synthesis import LutSet, SlicePlan
from .tree import TreeSpec

VECTOR_FILE_TAG = "dmkit-vectors"

# Turns binary text, as bytes, into bytes 0 and 1: the bits _bit_planes reads.
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")

# Stream chunks hold about this many table lookups: 128 words of 127 LUTs on
# the bundled tree.
CHUNK_LOOKUPS = 1 << 14

# A stream is split across processes only when each gets at least this many
# chunks, so that a fork pays for itself.
RANGE_CHUNKS = 4


class InvalidWord(ValueError):
    """A shaped word is not a codec output.

    layer_index and lut_index locate the first table miss (layer 1 is the
    symbol side).
    """

    def __init__(self, layer_index: int, lut_index: int):
        super().__init__(f"invalid word at layer {layer_index}, lut {lut_index}")
        self.layer_index = layer_index
        self.lut_index = lut_index

    def __reduce__(self):
        # args holds only the message; pickle and copy rebuild from the location.
        return type(self), (self.layer_index, self.lut_index)


def _bit_planes(bits: bytes, s: int) -> bytearray:
    """The s-bit fields of bits, a run of bytes 0 and 1 (a field's first bit first), one to a big-endian 16-bit slot.

    Bit plane j, the strided slice bits[j::s], holds bit j of every field,
    one to a byte. The planes are read as integers, shifted and or-ed into
    byte lanes: the low byte of each slot takes the last min(s, 8) planes,
    the high byte the others.
    """
    count = len(bits) // s
    slots = bytearray(2 * count)
    for lane, first, stop in ((0, 0, s - 8), (1, max(s - 8, 0), s)):
        if first < stop:
            x = 0
            for j in range(first, stop):
                x = x << 1 | int.from_bytes(bits[j::s], "big")
            slots[lane::2] = x.to_bytes(count, "big")
    return slots


def _info_slots(lutset: LutSet, words: BitWord, plan: tuple[SlicePlan, ...]) -> list[bytes]:
    """The information fields of a run of words, per layer top first, as 16-bit big-endian slots: slot k*T + q holds the field of LUT q of word k.

    The words are formatted once as binary text, turned into bytes 0 and 1.
    The layers with s information bits per LUT are cut out together: the
    group's slice plan (plan, LutSet.info_plan for as many words) joins
    their runs in one call, and _bit_planes splits the joined run into
    s-bit fields. A layer without information bits gets no slots.
    """
    spec = lutset.spec
    n_words = words.width // spec.n_info
    text = format(words.value, f"0{words.width}b").encode().translate(_BINARY_DIGITS)
    out = [b""] * spec.depth
    for (s, layers), cut in zip(lutset.info_groups, plan):
        slots = _bit_planes(b"".join(cut(text)), s)
        first = 0
        for i, a, b in layers:
            end = first + 2 * n_words * (b - a) // s
            out[i] = slots[first:end]
            first = end
    return out


def _encode_words(lutset: LutSet, words: BitWord, plan: tuple[SlicePlan, ...]) -> int:
    """The shaped words of a run of information words, concatenated, one layer at a time.

    plan is LutSet.info_plan for as many words. A layer's indices are 16-bit
    slots, LUT q of word k at slot k*T + q. One lookup per LUT in
    LutSet.encode_slots gives its children's fields, already in their slots
    and shifted, and one or adds the children's information fields: the
    next layer's indices. The leaf's lookups give its entries as binary
    text.
    """
    info = _info_slots(lutset, words, plan)
    *upper, leaf = lutset.encode_slots
    index = read_slots(info[0])
    for table, fields in zip(upper, info[1:]):
        slots = b"".join([table[e] for e in index])
        if fields:
            slots = (int.from_bytes(slots, "big") | int.from_bytes(fields, "big")).to_bytes(len(slots), "big")
        index = read_slots(slots)
    return int("".join([leaf[e] for e in index]), 2)


def _decode_words(lutset: LutSet, words: Sequence[int], plan: SlicePlan) -> int:
    """The information words of shaped words, concatenated.

    words are the shaped words' leaf outputs, word-major; plan is
    LutSet.join_plan for as many words. The inverse (invDM) tables,
    LutSet.decode_slots, run upward one layer at a time: one lookup per LUT
    gives its record, the r-bit value its parent sent and its s information
    bits as text. The records' r-bit values are merged into the parent
    words by whole-integer operations; the information bits are gathered
    in encode's order (LutSet.info_groups) and put back in word order by
    plan. Raises InvalidWord at the first layer with a table miss, naming
    the LUT of the first miss within its word.
    """
    spec = lutset.spec
    tables = lutset.decode_slots
    records = [b""] * spec.depth  # per layer: the records of its lookups, joined
    for i in range(spec.depth - 1, -1, -1):
        layer, table = spec.layers[i], tables[i]
        try:
            records[i] = joined = b"".join([table[w] for w in words])
        except TypeError:  # a None: a word the table never emits
            miss = [table[w] for w in words].index(None)
            raise InvalidWord(layer.layer_index, miss % layer.lut_count) from None
        t, size = layer.fanin, 2 + layer.info_bits
        if t == 2:
            # Byte 1 of a record is its r-bit value (r <= 8 at fanin 2), so
            # the two siblings' bytes read as a 16-bit slot a*2^8 + b, and
            # the parent's word a*2^r + b is that less a*(2^8 - 2^r).
            pair = joined[1::size]
            x = int.from_bytes(pair, "big")
            x -= ((x >> 8) & int.from_bytes(b"\0\xff" * (len(pair) // 2), "big")) * (256 - (1 << layer.parent_bits))
            words = read_slots(x.to_bytes(len(pair), "big"))
        elif t:
            # The t sibling r-values, leftmost first, form the parent's word:
            # byte 1 of every t-th record is one sibling's value, put in the
            # low byte of a 16-bit slot. Only a fanin-1 layer receives more
            # than 8 bits, from byte 0 too.
            r, step = layer.parent_bits, size * t
            slot = bytearray(2 * len(joined) // step)
            if r > 8:
                slot[0::2] = joined[::step]
            parent = 0
            for j in range(1, step, size):
                slot[1::2] = joined[j::step]
                parent = (parent << r) | int.from_bytes(slot, "big")
            words = read_slots(parent.to_bytes(len(slot), "big"))
    # The information bits of a group's records, layer after layer: each
    # record's last s bytes, copied out by s strided copies.
    texts = []
    for s, layers in lutset.info_groups:
        joined = b"".join([records[i] for i, _, _ in layers])
        text = bytearray(len(joined) // (2 + s) * s)
        for k in range(s):
            text[k::s] = joined[2 + k :: 2 + s]
        texts.append(text)
    return int(b"".join(plan(b"".join(texts))), 2)


def _decode_chunk(lutset: LutSet, words: BitWord, plan: SlicePlan) -> int:
    """_decode_words of the leaf outputs of shaped words, except that a miss is raised for the first invalid word.

    A miss found layer by layer may belong to a later word than one that
    fails higher up, so a chunk with a miss is re-run word by word.
    """
    leaves = split_symbols(words, lutset.spec.leaf.out_bits)
    try:
        return _decode_words(lutset, leaves, plan)
    except InvalidWord:
        count, one = lutset.spec.leaf.lut_count, lutset.one_word.join_plan
        for j in range(0, len(leaves), count):
            _decode_words(lutset, leaves[j : j + count], one)
        raise


def encode(lutset: LutSet, word: BitWord) -> BitWord:
    """Map an information word to its shaped word."""
    spec = lutset.spec
    if word.width != spec.n_info:
        raise ValueError(f"expected {spec.n_info} information bits, got {word.width}")
    return BitWord(_encode_words(lutset, word, lutset.one_word.info_plan), spec.n_out)


def decode(lutset: LutSet, shaped: BitWord) -> BitWord:
    """Recover the information word from a shaped word.

    Raises InvalidWord if any leaf chunk, or any word reassembled from
    child fields on the way up, is absent from the inverse (invDM) tables,
    LutSet.decode_slots.
    """
    spec = lutset.spec
    if shaped.width != spec.n_out:
        raise ValueError(f"expected {spec.n_out} shaped bits, got {shaped.width}")
    kit = lutset.one_word
    return BitWord(_decode_words(lutset, split_symbols(shaped, spec.leaf.out_bits, kit.split_masks), kit.join_plan), spec.n_info)


def _chunk_words(spec: TreeSpec) -> int:
    """Words per stream chunk: about CHUNK_LOOKUPS table lookups, a multiple of 8 words."""
    return max(8, CHUNK_LOOKUPS // sum(layer.lut_count for layer in spec.layers) // 8 * 8)


def _stream_workers(n_chunks: int) -> int:
    """Processes for a stream of n_chunks chunks: one per usable CPU, each with at least RANGE_CHUNKS chunks.

    1 where os.fork is missing or another thread is running.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, n_chunks // RANGE_CHUNKS))


def _fork_range(run: Callable[[int, int], None], first: int, stop: int) -> int | None:
    """Start a child that runs run(first, stop) and exits: 0 once it returns, 1 after any exception.

    Returns the child's pid, or None when no process could be made.
    """
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            run(first, stop)
            status = 0
        finally:
            os._exit(status)  # never return into the caller's stack
    return pid


def _run_stream(
    spec: TreeSpec,
    bits: BitWord,
    n_in: int,
    n_out: int,
    step: Callable[[BitWord, Any], int],
    make_plan: Callable[[int], Any],
) -> BitWord:
    """Map a stream of n_in-bit words to n_out-bit words, a chunk of words at a time.

    step takes the chunk's words as one BitWord and the slice plan
    make_plan builds for their count, and returns their outputs,
    concatenated. The plan of a whole chunk is built once, before any fork,
    if the stream has a whole chunk; a shorter chunk builds its own. Chunks
    are a multiple of 8 words, so every chunk starts on a whole byte on
    both sides: its output bytes are written in place, into one anonymous
    shared mmap of the whole output made before any fork. The chunks are
    cut into _stream_workers contiguous ranges: this process runs the
    first, a forked child each other one, and a range whose fork fails or
    whose child exits nonzero is re-run here, after the ranges before it,
    over whatever bytes the child left.
    """
    chunk = _chunk_words(spec)
    data = bits.to_bytes()
    n_words = bits.width // n_in
    size = -(-n_words * n_out // 8)
    plan = make_plan(chunk) if n_words >= chunk else None

    def run(first: int, stop: int) -> None:
        """Write the output bytes of words first..stop-1 in place, one chunk at a time."""
        for first in range(first, stop, chunk):
            count = min(chunk, stop - first)
            start, end = first * n_in // 8, -(-(first + count) * n_in // 8)
            piece = int.from_bytes(data[start:end], "big") >> (8 * (end - start) - count * n_in)
            piece = step(BitWord(piece, count * n_in), plan if count == chunk else make_plan(count))
            piece = BitWord(piece, count * n_out).to_bytes()
            at = first * n_out // 8
            out[at : at + len(piece)] = piece

    n_chunks = -(-n_words // chunk)
    workers = _stream_workers(n_chunks)
    bounds = [min(n_words, n_chunks * k // workers * chunk) for k in range(workers + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    children: dict[int, int] = {}  # range number -> pid of the child running it
    with mmap.mmap(-1, max(size, 1)) as out:  # an anonymous mmap cannot be empty
        try:
            for k in range(1, workers):
                pid = _fork_range(run, *ranges[k])
                if pid:
                    children[k] = pid
            run(*ranges[0])
            for k in range(1, workers):
                status = os.waitpid(children[k], 0)[1] if k in children else 1
                children.pop(k, None)
                if status:
                    run(*ranges[k])
        finally:
            # On an early exit, no child may outlive the call. signal is
            # imported only here: at module level it adds 0.13 MB to every
            # process's ru_maxrss.
            if children:
                import signal
            for pid in children.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        del data  # the read-out below is the call's memory peak; the input's bytes are no longer needed
        return BitWord.from_bytes(out[:size], n_words * n_out)


def encode_stream(lutset: LutSet, bits: BitWord, pad: bool = False) -> BitWord:
    """Encode a concatenation of information words.

    The stream length must be a multiple of n_info unless pad is set, in
    which case the final partial word is zero-padded at its end.
    """
    spec = lutset.spec
    n_info = spec.n_info
    fill = -bits.width % n_info
    if fill:
        if not pad:
            raise ValueError(f"stream of {bits.width} bits is not a multiple of {n_info} (use pad)")
        bits = BitWord(bits.value << fill, bits.width + fill)
    # Built before _run_stream forks, as the plans are, so that its children inherit it.
    lutset.encode_slots
    return _run_stream(spec, bits, n_info, spec.n_out, partial(_encode_words, lutset), lutset.info_plan)


def decode_stream(lutset: LutSet, bits: BitWord) -> BitWord:
    """Decode a concatenation of shaped words (length must divide exactly).

    Raises the InvalidWord of the first invalid word in the stream.
    """
    spec = lutset.spec
    n_out = spec.n_out
    if bits.width % n_out:
        raise ValueError(f"stream of {bits.width} bits is not a multiple of {n_out}")
    # Built before _run_stream forks, as the plans are, so that its children inherit it.
    lutset.decode_slots
    return _run_stream(spec, bits, n_out, spec.n_info, partial(_decode_chunk, lutset), lutset.join_plan)


def dump_test_vectors(
    path: str | os.PathLike,
    pairs: Iterable[tuple[BitWord, BitWord]],
    spec: TreeSpec,
) -> None:
    """Write (information word, shaped word) pairs as hex lines to the file at path.

    Format: a header line "dmkit-vectors 1 <n_info> <n_out>", then one
    pair per line as two hex strings (MSB-first byte packing, zero pad
    bits at the end of the last byte).
    """
    with open(path, "w") as f:
        f.write(f"{VECTOR_FILE_TAG} 1 {spec.n_info} {spec.n_out}\n")
        for info, shaped in pairs:
            if info.width != spec.n_info or shaped.width != spec.n_out:
                raise ValueError("pair widths do not match the spec")
            f.write(f"{info.hex()} {shaped.hex()}\n")


def load_test_vectors(path: str | os.PathLike) -> list[tuple[BitWord, BitWord]]:
    """Read the test-vector file at path, as dump_test_vectors writes it."""
    with open(path) as f:
        head = f.readline().split()
        widths = [int(w) for w in head[2:] if w.isdecimal()]
        if len(head) != 4 or head[0] != VECTOR_FILE_TAG or head[1] != "1" or len(widths) != 2 or 0 in widths:
            raise ValueError(f"not a test-vector file: header {head!r}")
        pairs = []
        for line_no, line in enumerate(f, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 2:
                raise ValueError(f"line {line_no}: expected two hex fields")
            try:
                pairs.append(tuple([BitWord.from_hex(text, w) for text, w in zip(fields, widths)]))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from exc
    return pairs
