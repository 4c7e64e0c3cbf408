"""Fixed-length matching and dematching over a synthesized LUT set.

encode maps an n_info-bit information word to an n_out-bit shaped word:
the top LUT is indexed by its information bits alone; every other LUT by
the r bits received from its parent (high part of the index) concatenated
with its own information bits (low part). The shaped word is the
concatenation of the leaf outputs in LUT order.

decode runs the mirror tables upward and is exact: decode(encode(w)) == w
for every word. A shaped word that is not a codec output fails with
InvalidWord at the first layer where a chunk or reassembled word has no
table entry; no correction is attempted.

One kernel pair serves single words and streams. It takes a list of words
through the tree one layer at a time, as the LUTs of a layer work side by
side: every list is flat and word-major, so LUT q of word k sits at
k*T + q. encode/decode are its one-word case. encode_stream/decode_stream
cut the stream into chunks of about CHUNK_LOOKUPS table lookups, a
multiple of 8 words so that chunks are whole bytes, and join the chunk
outputs as bytes; the whole stream is still held in memory. A decode chunk
with a table miss is re-run word by word, so a stream raises the
InvalidWord of its first invalid word.

The fields are cut bit-parallel by bits.split_symbols, which keeps them
in bytes or a 16-bit array, 1 or 2 bytes a field. encode formats its words
once as binary text and splits the information fields of all layers with
the same s in one call (_info_fields), at the places LutSet.info_groups
gives; decode splits the leaf outputs in one call. encode then reads
LutSet.fields above the leaf and LutSet.leaf_text at it; decode reads
LutSet.split_mirror, which gives each word's r-bit value for its parent
(hi) and its s information bits as text (lo), and never builds the
mirror itself. What is left is table lookups, a list comprehension or
two per layer and direction: in a cProfile of one-process dmkit encode
--pad and decode of 8192 bundled words (Python 3.11, x86_64 VM), the
splits took 0.08 of 0.59 s, against 0.24 of 0.75 s when they cut one
field at a time.

Words in a stream are independent, so a long stream runs on every usable
CPU. Its chunks are split into contiguous ranges of at least
RANGE_CHUNKS chunks, one per CPU in os.sched_getaffinity: this process
runs the first range and a forked child each other one, sending the
range's output bytes back through a pipe. The LutSet views a direction
reads are built before the fork, so that the children inherit them
instead of building them. A stream runs in this process alone when it
has fewer than 2 * RANGE_CHUNKS chunks, when only one CPU is usable,
where os.fork is missing, and while another thread runs (forking then is
unsafe); a range whose fork fails runs here too. The ranges are joined
in stream order, and a range whose child fails is re-run here after the
ranges before it, so outputs and errors are those of the one-process
path: a stream with invalid words raises the InvalidWord of its first
one. No child outlives the call. The children's memory is not counted in
this process's ru_maxrss but in its RUSAGE_CHILDREN.

Both directions are pure functions of an immutable LutSet and may be used
concurrently.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from .bits import BitWord, split_symbols
from .synthesis import LutSet
from .tree import TreeSpec

VECTOR_FILE_TAG = "dmkit-vectors"

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


def _info_fields(lutset: LutSet, words: BitWord) -> list[Sequence[int]]:
    """The information fields of a run of words: per layer, top first, entry k*T + q is the field of LUT q of word k.

    The words are formatted once as binary text. The layers with s
    information bits per LUT are split together, at the places
    LutSet.info_groups gives: each word's T*s-bit run of each such layer is
    sliced out of the text, layer after layer, and one split_symbols call
    cuts the joined runs into s-bit fields (two calls on the bundled tree).
    """
    spec = lutset.spec
    n_info, n_words = spec.n_info, words.width // spec.n_info
    text = format(words.value, f"0{words.width}b")
    out: list[Sequence[int]] = [()] * spec.depth
    for s, layers in lutset.info_groups:
        counts = [spec.layers[i].lut_count * n_words for i, _, _ in layers]
        if s:
            run = "".join([text[k + a : k + b] for _, a, b in layers for k in range(0, words.width, n_info)])
            fields = split_symbols(BitWord(int(run, 2), len(run)), s)
        else:
            fields = bytes(sum(counts))
        first = 0
        for (i, _, _), count in zip(layers, counts):
            out[i] = fields[first : first + count]
            first += count
    return out


def _encode_words(lutset: LutSet, words: BitWord) -> int:
    """The shaped words of a run of information words, concatenated, one layer at a time."""
    spec = lutset.spec
    *upper, (leaf, leaf_info) = zip(spec.layers, _info_fields(lutset, words))
    parent_r = [0] * (words.width // spec.n_info)  # r-value received by each LUT of the current layer; top gets none
    for (layer, info), fields in zip(upper, lutset.fields):
        s = layer.info_bits
        parent_r = [f[i] for i in [(p << s) | x for p, x in zip(parent_r, info)] for f in fields]
    s = leaf.info_bits
    text = lutset.leaf_text
    return int("".join([text[(p << s) | x] for p, x in zip(parent_r, leaf_info)]), 2)


def _decode_words(lutset: LutSet, chunks: Sequence[int]) -> int:
    """The information words of shaped words, concatenated.

    chunks are the words' leaf outputs, word-major. The mirror tables run
    upward one layer at a time, read through LutSet.split_mirror. Raises
    InvalidWord at the first layer with a table miss, naming the LUT of the
    first miss within its word.
    """
    spec = lutset.spec
    his, los = lutset.split_mirror
    runs = []  # per layer with information bits, bottom-up: (fields of every word as text, bits per word)
    words = chunks
    for layer, hi, lo in zip(reversed(spec.layers), reversed(his), reversed(los)):
        h = [hi[w] for w in words]
        if -1 in h:
            raise InvalidWord(layer.layer_index, h.index(-1) % layer.lut_count)
        if layer.info_bits:
            runs.append(("".join([lo[w] for w in words]), layer.lut_count * layer.info_bits))
        if layer.fanin:
            # t sibling r-values form the parent's word.
            r, t = layer.parent_bits, layer.fanin
            words = h[::t]
            for j in range(1, t):
                words = [(w << r) | i for w, i in zip(words, h[j::t])]
    runs.reverse()
    n_words = len(chunks) // spec.leaf.lut_count
    return int("".join([run[k * width : (k + 1) * width] for k in range(n_words) for run, width in runs]), 2)


def _decode_chunk(lutset: LutSet, chunks: Sequence[int]) -> int:
    """_decode_words, except that a miss is raised for the first invalid word.

    A miss found layer by layer may belong to a later word than one that
    fails higher up, so a chunk with a miss is re-run word by word.
    """
    try:
        return _decode_words(lutset, chunks)
    except InvalidWord:
        count = lutset.spec.leaf.lut_count
        for j in range(0, len(chunks), count):
            _decode_words(lutset, chunks[j : j + count])
        raise


def encode(lutset: LutSet, word: BitWord) -> BitWord:
    """Map an information word to its shaped word."""
    spec = lutset.spec
    if word.width != spec.n_info:
        raise ValueError(f"expected {spec.n_info} information bits, got {word.width}")
    return BitWord(_encode_words(lutset, word), spec.n_out)


def decode(lutset: LutSet, shaped: BitWord) -> BitWord:
    """Recover the information word from a shaped word.

    Raises InvalidWord if any leaf chunk, or any word reassembled from
    child fields on the way up, is absent from the mirror tables.
    """
    spec = lutset.spec
    if shaped.width != spec.n_out:
        raise ValueError(f"expected {spec.n_out} shaped bits, got {shaped.width}")
    return BitWord(_decode_words(lutset, split_symbols(shaped, spec.leaf.out_bits)), spec.n_info)


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


def _fork_range(run: Callable[[int, int], Iterator[bytes]], first: int, stop: int) -> tuple[int, BinaryIO] | None:
    """Start a child that writes the bytes of run(first, stop) to a pipe and exits.

    Returns the child's pid and the pipe's read end, or None when no pipe or
    process could be made. The child exits 0 once every byte is written,
    and 1 after any exception.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            pieces = list(run(first, stop))  # all of them first: a full pipe blocks until the reader is free
            with open(write_fd, "wb") as pipe:
                pipe.writelines(pieces)
            status = 0
        finally:
            os._exit(status)  # never return into the caller's stack
    os.close(write_fd)
    return pid, open(read_fd, "rb", buffering=0)


def _run_stream(spec: TreeSpec, bits: BitWord, n_in: int, n_out: int, step: Callable[[BitWord], int]) -> BitWord:
    """Map a stream of n_in-bit words to n_out-bit words, a chunk of words at a time.

    step takes the chunk's words as one BitWord and returns their outputs,
    concatenated. Chunks are a multiple of 8 words, so every chunk but the
    last is whole bytes on both sides, and the outputs are joined as bytes.
    The chunks are cut into _stream_workers contiguous ranges: this process
    runs the first, a forked child each other one, and a range whose child
    fails or returns short is re-run here, after the ranges before it.
    """
    chunk = _chunk_words(spec)
    data = bits.to_bytes()
    n_words = bits.width // n_in

    def run(first: int, stop: int) -> Iterator[bytes]:
        """The output bytes of words first..stop-1, one chunk at a time."""
        for first in range(first, stop, chunk):
            count = min(chunk, stop - first)
            start, end = first * n_in // 8, -(-(first + count) * n_in // 8)
            piece = int.from_bytes(data[start:end], "big") >> (8 * (end - start) - count * n_in)
            yield BitWord(step(BitWord(piece, count * n_in)), count * n_out).to_bytes()

    n_chunks = -(-n_words // chunk)
    workers = _stream_workers(n_chunks)
    bounds = [min(n_words, n_chunks * k // workers * chunk) for k in range(workers + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    children: dict[int, tuple[int, BinaryIO]] = {}  # range number -> (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            child = _fork_range(run, *ranges[k])
            if child:
                children[k] = child
        out = list(run(*ranges[0]))
        for k, (first, stop) in enumerate(ranges[1:], start=1):
            pieces = None
            if k in children:
                pid, pipe = children[k]
                with pipe:
                    pieces = list(iter(partial(pipe.read, 1 << 16), b""))
                del children[k]
                # Only the last range can end in a partial byte.
                if os.waitpid(pid, 0)[1] or sum(map(len, pieces)) != -(-(stop - first) * n_out // 8):
                    pieces = None
            out.extend(run(first, stop) if pieces is None else pieces)
    finally:
        # On an early exit, a child may still be computing, or blocked writing
        # to a full pipe whose read end a later child also holds, so closing
        # the pipe would not stop it. signal is imported only here: at module
        # level it adds 0.13 MB to every process's ru_maxrss.
        if children:
            import signal
        for pid, pipe in children.values():
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
    del data  # the join below is the call's memory peak; the input's bytes are no longer needed
    return BitWord.from_bytes(b"".join(out), n_words * n_out)


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
    # Built before _run_stream forks, so that its children inherit them.
    lutset.info_groups, lutset.fields, lutset.leaf_text
    return _run_stream(spec, bits, n_info, spec.n_out, partial(_encode_words, lutset))


def decode_stream(lutset: LutSet, bits: BitWord) -> BitWord:
    """Decode a concatenation of shaped words (length must divide exactly).

    Raises the InvalidWord of the first invalid word in the stream.
    """
    spec = lutset.spec
    n_out = spec.n_out
    if bits.width % n_out:
        raise ValueError(f"stream of {bits.width} bits is not a multiple of {n_out}")
    leaf_bits = spec.leaf.out_bits
    lutset.split_mirror  # built before _run_stream forks, so that its children inherit it
    return _run_stream(
        spec, bits, n_out, spec.n_info, lambda chunk: _decode_chunk(lutset, split_symbols(chunk, leaf_bits))
    )


def dump_test_vectors(
    dest: str | os.PathLike | TextIO,
    pairs: Iterable[tuple[BitWord, BitWord]],
    spec: TreeSpec,
) -> None:
    """Write (information word, shaped word) pairs as hex lines.

    Format: a header line "dmkit-vectors 1 <n_info> <n_out>", then one
    pair per line as two hex strings (MSB-first byte packing, zero pad
    bits at the end of the last byte).
    """
    own = isinstance(dest, (str, os.PathLike))
    f: TextIO = open(dest, "w") if own else dest  # type: ignore[arg-type]
    try:
        f.write(f"{VECTOR_FILE_TAG} 1 {spec.n_info} {spec.n_out}\n")
        for info, shaped in pairs:
            if info.width != spec.n_info or shaped.width != spec.n_out:
                raise ValueError("pair widths do not match the spec")
            f.write(f"{info.hex()} {shaped.hex()}\n")
    finally:
        if own:
            f.close()


def load_test_vectors(src: str | os.PathLike | TextIO) -> list[tuple[BitWord, BitWord]]:
    """Read a test-vector file written by dump_test_vectors."""
    own = isinstance(src, (str, os.PathLike))
    f: TextIO = open(src) if own else src  # type: ignore[arg-type]
    try:
        head = f.readline().split()
        if len(head) != 4 or head[0] != VECTOR_FILE_TAG or head[1] != "1":
            raise ValueError(f"not a test-vector file: header {head!r}")
        n_info, n_out = int(head[2]), int(head[3])
        pairs = []
        for line_no, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                info_hex, shaped_hex = line.split()
            except ValueError as exc:
                raise ValueError(f"line {line_no}: expected two hex fields") from exc
            pairs.append((BitWord.from_hex(info_hex, n_info), BitWord.from_hex(shaped_hex, n_out)))
        return pairs
    finally:
        if own:
            f.close()
