import copy
import os
import pickle
import random
import signal
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkit import (
    BitWord,
    InvalidWord,
    LutSet,
    decode,
    decode_stream,
    dump_test_vectors,
    encode,
    encode_stream,
    load_lutset,
    load_test_vectors,
    pack_symbols,
    save_lutset,
    synthesize_tree,
    unpack_symbols,
    validate_tree,
    write_bitfile,
)
from dmkit import bits, codec
from dmkit.bits import read_slots
from dmkit.cli import main
from dmkit.codec import _chunk_words
from conftest import ALL_TREES, TREE3_ROWS, cut_words, join_words


def _naive_encode(lutset, value):
    """The shaped word of one information word, walked one LUT and one field at a time.

    Information fields go top layer first, within a layer by LUT index,
    reading the word MSB-first; each LUT's index is the r bits it received
    (high) and its s information bits (low); a LUT sends field j of its
    entry, leftmost first, to its child j; the shaped word is the leaf
    entries in LUT order.
    """
    spec = lutset.spec
    rest = spec.n_info
    received = [0]  # r-value received by each LUT of the current layer; the top gets none
    shaped = 0
    for i, (layer, lut) in enumerate(zip(spec.layers, lutset.luts)):
        s = layer.info_bits
        sent = []
        for q in range(layer.lut_count):
            rest -= s
            entry = lut.entries[(received[q] << s) | ((value >> rest) & ((1 << s) - 1))]
            if i + 1 == spec.depth:
                shaped = (shaped << lut.out_bits) | entry
            else:
                r = spec.layers[i + 1].parent_bits
                sent += [(entry >> shift) & ((1 << r) - 1) for shift in range(lut.out_bits - r, -1, -r)]
        received = sent
    assert rest == 0
    return shaped


def _naive_decode(lutset, shaped_words):
    """For each shaped word, its information word or the (layer_index, lut_index) of its first table miss.

    Walks the inverse of each table, built from its entries, one LUT at a
    time, bottom-up: the leaf reads the shaped word's u-bit chunks in LUT
    order; every other LUT reads the word its t children's indices send up,
    their r high bits, leftmost child first. A LUT's s low index bits are
    its information bits, which go back top layer first, by LUT index. The
    first miss is the lowest layer's, and within it the lowest LUT index's.
    """
    inverses = [{w: e for e, w in enumerate(lut.entries)} for lut in lutset.luts]
    return [_naive_decode_one(lutset, inverses, shaped) for shaped in shaped_words]


def _naive_decode_one(lutset, inverses, shaped):
    spec = lutset.spec
    u = spec.leaf.out_bits
    words = [(shaped >> (spec.n_out - (q + 1) * u)) & ((1 << u) - 1) for q in range(spec.leaf.lut_count)]
    info = [None] * spec.depth
    for i in range(spec.depth - 1, -1, -1):
        layer, inverse = spec.layers[i], inverses[i]
        indices = []
        for q, w in enumerate(words):
            if w not in inverse:
                return layer.layer_index, q
            indices.append(inverse[w])
        s = layer.info_bits
        info[i] = [e & ((1 << s) - 1) for e in indices]
        if layer.fanin:
            r, t = layer.parent_bits, layer.fanin
            words = []
            for p in range(0, len(indices), t):
                w = 0
                for e in indices[p : p + t]:
                    w = (w << r) | (e >> s)
                words.append(w)
    value = 0
    for layer, fields in zip(spec.layers, info):
        for x in fields:
            value = (value << layer.info_bits) | x
    return value


@pytest.mark.parametrize("fixture", ALL_TREES)
def test_encode_matches_naive_field_walk(request, fixture):
    # One word at a time and three words in one stream chunk. The edge words
    # put a one in the top LUT's first field and in the last leaf's last field.
    lutset = request.getfixturevalue(fixture)
    spec = lutset.spec
    rng = random.Random(17)
    edges = [(1 << spec.n_info) - 1, 1 << (spec.n_info - 1), 1]
    values = edges + [rng.getrandbits(spec.n_info) for _ in range(27)]
    expected = [_naive_encode(lutset, v) for v in values]
    assert [encode(lutset, BitWord(v, spec.n_info)).value for v in values] == expected
    for k in range(0, len(values), 3):
        stream = join_words(values[k : k + 3], spec.n_info)
        assert encode_stream(lutset, stream) == join_words(expected[k : k + 3], spec.n_out)


def test_encode_rejects_wrong_width(full_lutset):
    with pytest.raises(ValueError):
        encode(full_lutset, BitWord(0, 506))


def test_zero_maps_to_zero(full_lutset, tree2_lutset, tree3_lutset):
    for lutset in (full_lutset, tree2_lutset, tree3_lutset):
        spec = lutset.spec
        shaped = encode(lutset, BitWord(0, spec.n_info))
        assert shaped == BitWord(0, spec.n_out)
        assert decode(lutset, shaped) == BitWord(0, spec.n_info)


@pytest.mark.parametrize("fixture", ["tree2_lutset", "tree3_lutset"])
def test_exhaustive_codebook(fixture, request):
    lutset = request.getfixturevalue(fixture)
    spec = lutset.spec
    outputs = set()
    for value in range(1 << spec.n_info):
        word = BitWord(value, spec.n_info)
        shaped = encode(lutset, word)
        assert shaped.width == spec.n_out
        outputs.add(shaped.value)
        assert decode(lutset, shaped) == word
    assert len(outputs) == 1 << spec.n_info  # injective


def test_codebook_minimum_energy_at_zero(tree3_lutset):
    # Index zero selects the cheapest entry everywhere, so no input can
    # produce a cheaper shaped word.
    from dmkit import CLASS_ENERGIES, unpack_symbols

    spec = tree3_lutset.spec

    def word_energy(shaped):
        return sum(CLASS_ENERGIES[s] for s in unpack_symbols(shaped, 2))

    zero_energy = word_energy(encode(tree3_lutset, BitWord(0, spec.n_info)))
    for value in range(1 << spec.n_info):
        assert word_energy(encode(tree3_lutset, BitWord(value, spec.n_info))) >= zero_energy


def test_random_roundtrip_full_tree(full_lutset):
    spec = full_lutset.spec
    rng = random.Random(2024)
    for _ in range(500):
        word = BitWord(rng.getrandbits(spec.n_info), spec.n_info)
        assert decode(full_lutset, encode(full_lutset, word)) == word


def _bad_leaf_chunk(lutset, chunk):
    """The all-zero word's shaped word with leaf chunk `chunk` replaced by one the leaf never emits."""
    spec = lutset.spec
    u1 = spec.leaf.out_bits
    emitted = set(lutset.luts[-1].entries)
    bad_chunk = next(w for w in range(1 << u1) if w not in emitted)
    chunks = list(unpack_symbols(encode(lutset, BitWord(0, spec.n_info)), u1))
    chunks[chunk] = bad_chunk
    return pack_symbols(chunks, u1)


def _bad_above_leaves(lutset):
    """Valid leaf chunks whose parent fields reassemble into a word layer 2's LUT 0 never emits."""
    spec = lutset.spec
    emitted = set(lutset.luts[-2].entries)
    r1 = spec.leaf.parent_bits
    s1 = spec.leaf.info_bits
    bad = next(w for w in range(1 << spec.layers[-2].out_bits) if w not in emitted)
    r_left, r_right = bad >> r1, bad & ((1 << r1) - 1)
    leaf = lutset.luts[-1]
    chunks = [leaf.entries[r_left << s1], leaf.entries[r_right << s1]]
    chunks += [leaf.entries[0]] * (spec.leaf.lut_count - 2)
    return pack_symbols(chunks, spec.leaf.out_bits)


@pytest.mark.parametrize("chunk", [0, 5, 63])
def test_decode_rejects_unselected_leaf_chunk(full_lutset, chunk):
    with pytest.raises(InvalidWord) as exc:
        decode(full_lutset, _bad_leaf_chunk(full_lutset, chunk))
    assert exc.value.layer_index == 1
    assert exc.value.lut_index == chunk


def test_decode_rejects_bad_word_above_leaves(full_lutset):
    with pytest.raises(InvalidWord) as exc:
        decode(full_lutset, _bad_above_leaves(full_lutset))
    assert exc.value.layer_index == 2
    assert exc.value.lut_index == 0


def test_decode_rejects_wrong_width(full_lutset):
    with pytest.raises(ValueError):
        decode(full_lutset, BitWord(0, 639))


def test_chain_tree_with_empty_info_fields(chain_lutset):
    spec = chain_lutset.spec
    for value in range(1 << spec.n_info):
        word = BitWord(value, spec.n_info)
        assert decode(chain_lutset, encode(chain_lutset, word)) == word


@pytest.mark.parametrize(
    "lutset_name, n_words, tail_bits",
    # 17 bundled words span more than one 8-word byte-aligned block.
    [("tree3_lutset", 3, 0), ("full_lutset", 17, 200)],
    ids=["tree3", "seven-layer"],
)
def test_stream_is_stateless(request, lutset_name, n_words, tail_bits):
    lutset = request.getfixturevalue(lutset_name)
    spec = lutset.spec
    rng = random.Random(5)
    words = [rng.getrandbits(spec.n_info) for _ in range(n_words)]
    tail = rng.getrandbits(tail_bits)
    stream = join_words(words, spec.n_info)
    stream = BitWord((stream.value << tail_bits) | tail, stream.width + tail_bits)
    shaped = encode_stream(lutset, stream, pad=tail_bits > 0)
    if tail_bits:
        words.append(tail << (spec.n_info - tail_bits))
    assert shaped == join_words([encode(lutset, BitWord(w, spec.n_info)).value for w in words], spec.n_out)
    assert decode_stream(lutset, shaped) == join_words(words, spec.n_info)


@pytest.fixture()
def deadline():
    """Fail a test that runs past 60 s, instead of hanging on a child process."""

    def expire(signum, frame):
        raise TimeoutError("stream test ran past 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(codec, "_stream_workers", lambda n_chunks: workers)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "lutset_name",
    [
        "full_lutset",
        "tree3_lutset",
        "tree2_lutset",
        "chain_lutset",
        "fanin4_lutset",
        "fanin3_lutset",
        "full16_lutset",
        "wide_chain_lutset",
    ],
)
def test_stream_matches_per_word_codec(request, monkeypatch, deadline, lutset_name):
    # Word counts around one and two stream chunks, with and without a padded
    # tail, in one, two and three processes: at 2c + 3 words, three ranges of
    # one chunk each, the last one ragged. Every multi-process output equals
    # the one-process output in full, and every word round-trips; the
    # one-word codec checks the words on either side of each chunk (and
    # range) edge, the last word and the padded tail.
    lutset = request.getfixturevalue(lutset_name)
    spec = lutset.spec
    c = _chunk_words(spec)
    rng = random.Random(11)
    for n_words in (0, 1, c - 1, c, c + 1, 2 * c + 3):
        for tail_bits in (0, spec.n_info - 1):
            words = [rng.getrandbits(spec.n_info) for _ in range(n_words)]
            tail = rng.getrandbits(tail_bits)
            stream = join_words(words, spec.n_info)
            stream = BitWord((stream.value << tail_bits) | tail, stream.width + tail_bits)
            padded = words + [tail << (spec.n_info - tail_bits)] if tail_bits else words
            expected = join_words(padded, spec.n_info)
            case = (n_words, tail_bits)
            _force_workers(monkeypatch, 1)
            shaped = encode_stream(lutset, stream, pad=tail_bits > 0)
            assert decode_stream(lutset, shaped) == expected, case
            out = cut_words(shaped, spec.n_out)
            edges = {j for k in range(0, len(padded), c) for j in (k - 1, k)} | {len(padded) - 1}
            for j in sorted(edges - {-1}):
                assert encode(lutset, BitWord(padded[j], spec.n_info)).value == out[j], (case, j)
                assert decode(lutset, BitWord(out[j], spec.n_out)).value == padded[j], (case, j)
            for workers in (2, 3):
                _force_workers(monkeypatch, workers)
                assert encode_stream(lutset, stream, pad=tail_bits > 0) == shaped, (case, workers)
                assert decode_stream(lutset, shaped) == expected, (case, workers)
                _assert_no_children()


@pytest.mark.parametrize("fixture", ALL_TREES)
def test_stream_matches_per_word_encode_around_one_chunk(request, deadline, fixture):
    # Every word of streams of c - 1, c and c + 1 words equals its one-word
    # encode, and every stream decodes back to its words: the whole-chunk
    # slice plans, and the plans a shorter chunk builds for itself. The
    # streams are prefixes of one word list, so each word is encoded once.
    lutset = request.getfixturevalue(fixture)
    spec = lutset.spec
    c = _chunk_words(spec)
    rng = random.Random(29)
    words = [rng.getrandbits(spec.n_info) for _ in range(c + 1)]
    shaped = [encode(lutset, BitWord(w, spec.n_info)).value for w in words]
    for n_words in (c - 1, c, c + 1):
        stream = encode_stream(lutset, join_words(words[:n_words], spec.n_info))
        assert cut_words(stream, spec.n_out) == tuple(shaped[:n_words]), n_words
        assert decode_stream(lutset, stream) == join_words(words[:n_words], spec.n_info), n_words


@pytest.mark.parametrize("s", range(1, 17))
def test_info_slots_cut_every_field_width(s):
    # The information fields of n_words words, cut by _info_slots through
    # the slice plan and the bit planes, against one shift and mask per
    # field. Below 16 bits, four leaves of s bits each sit under a top LUT
    # of 2 bits, so s shares no group with another layer unless s = 2; at
    # 16 bits, one LUT of 16 information bits. Only the spec's layout is
    # read, so no tables are built.
    if s < 16:
        u = s + 2 - s % 2  # the even width that holds an s + 1-bit index
        rows = [{"l": 2, "T": 1, "s": 2, "v": 2, "u": 4}, {"l": 1, "t": 4, "r": 1, "s": s, "v": s + 1, "u": u}]
    else:
        rows = [{"l": 1, "T": 1, "s": 16, "v": 16, "u": 16}]
    lutset = LutSet(validate_tree(rows, 8, 4), ())
    spec = lutset.spec
    rng = random.Random(s)
    for n_words in (1, 2, 7, 8, 9, 127, 128, 129):
        words = [rng.getrandbits(spec.n_info) for _ in range(n_words)]
        words[0] = (1 << spec.n_info) - 1
        slots = codec._info_slots(lutset, join_words(words, spec.n_info), lutset.info_plan(n_words))
        first = 0  # where the layer's fields start in a word
        for layer, cut in zip(spec.layers, slots):
            width, count = layer.info_bits, layer.lut_count
            expected = [
                (w >> (spec.n_info - first - (q + 1) * width)) & ((1 << width) - 1) for w in words for q in range(count)
            ]
            assert list(read_slots(cut)) == expected, (n_words, layer.layer_index)
            first += count * width


@pytest.mark.parametrize("fixture", ALL_TREES)
def test_decode_matches_naive_mirror_walk(request, monkeypatch, deadline, fixture):
    # Codec outputs and the same words with one flipped bit, one word at a
    # time and as streams in one process and in three. The last stream spans
    # three ranges, and its first invalid word sits in a forked child's.
    lutset = request.getfixturevalue(fixture)
    spec = lutset.spec
    rng = random.Random(23)
    values = [rng.getrandbits(spec.n_info) for _ in range(40)]
    shaped = [_naive_encode(lutset, v) for v in values]
    assert _naive_decode(lutset, shaped) == values
    assert [decode(lutset, BitWord(w, spec.n_out)).value for w in shaped] == values
    flipped = [w ^ (1 << rng.randrange(spec.n_out)) for w in shaped]
    expected = _naive_decode(lutset, flipped)
    for word, want in zip(flipped, expected):
        if isinstance(want, tuple):
            with pytest.raises(InvalidWord) as exc:
                decode(lutset, BitWord(word, spec.n_out))
            assert (exc.value.layer_index, exc.value.lut_index) == want, hex(word)
        else:
            assert decode(lutset, BitWord(word, spec.n_out)).value == want, hex(word)
    valid = [(w, want) for w, want in zip(flipped, expected) if not isinstance(want, tuple)]
    invalid = [(w, want) for w, want in zip(flipped, expected) if isinstance(want, tuple)]
    streams = []  # streams with invalid words: the flipped words, and 2c + 3 words with invalid ones in ranges 1 and 2
    if invalid:
        c = _chunk_words(spec)
        ranged = [shaped[j % len(shaped)] for j in range(2 * c + 3)]
        ranged[c + 1], ranged[2 * c + 1] = invalid[0][0], invalid[-1][0]
        streams = [flipped, ranged]
    for workers in (1, 3):
        _force_workers(monkeypatch, workers)
        stream = join_words([w for w, _ in valid], spec.n_out)
        assert decode_stream(lutset, stream) == join_words([want for _, want in valid], spec.n_info)
        for words in streams:
            with pytest.raises(InvalidWord) as exc:
                decode_stream(lutset, join_words(words, spec.n_out))
            assert (exc.value.layer_index, exc.value.lut_index) == invalid[0][1], workers
        _assert_no_children()


def test_stream_without_fork(monkeypatch, deadline, full_lutset):
    # A failed fork leaves every range to this process, with the same output.
    spec = full_lutset.spec
    n_words = 2 * _chunk_words(spec) + 3
    stream = BitWord(random.Random(13).getrandbits(n_words * spec.n_info), n_words * spec.n_info)
    shaped = encode_stream(full_lutset, stream)

    def fork():
        raise OSError("no fork")

    _force_workers(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    assert encode_stream(full_lutset, stream) == shaped
    assert decode_stream(full_lutset, shaped) == stream
    _assert_no_children()


def test_stream_runs_in_one_process_while_another_thread_runs(monkeypatch, deadline, full_lutset):
    # Forking while another thread runs is unsafe: a stream long enough for
    # two ranges then runs here alone, with the one-word codec's output.
    spec = full_lutset.spec
    n_words = 2 * codec.RANGE_CHUNKS * _chunk_words(spec)
    rng = random.Random(17)
    words = [rng.getrandbits(spec.n_info) for _ in range(n_words)]

    def fork():
        pytest.fail("forked while another thread runs")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        shaped = encode_stream(full_lutset, join_words(words, spec.n_info))
    finally:
        stop.set()
        thread.join()
    assert cut_words(shaped, spec.n_out) == tuple(encode(full_lutset, BitWord(w, spec.n_info)).value for w in words)


def test_stream_reruns_range_of_child_that_dies(monkeypatch, deadline, full_lutset):
    # 4c + 3 words in two processes: the child runs range 1, the last three
    # chunks. It writes its first chunk's output with every bit flipped, then
    # dies on its second chunk; this process re-runs the range over those
    # bytes.
    spec = full_lutset.spec
    c = _chunk_words(spec)
    n_words = 4 * c + 3
    stream = BitWord(random.Random(19).getrandbits(n_words * spec.n_info), n_words * spec.n_info)
    _force_workers(monkeypatch, 1)
    shaped = encode_stream(full_lutset, stream)
    caller, encode_words = os.getpid(), codec._encode_words
    calls = []

    def dying(lutset, words, plan):
        out = encode_words(lutset, words, plan)
        if os.getpid() == caller:
            return out
        calls.append(words)  # calls is the child's own copy
        if len(calls) > 1:
            os._exit(1)
        return out ^ ((1 << (words.width // spec.n_info * spec.n_out)) - 1)

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(codec, "_encode_words", dying)
    assert encode_stream(full_lutset, stream) == shaped
    _assert_no_children()


@pytest.mark.parametrize("workers", [2, 3])
def test_stream_ranges_raise_first_invalid_word(monkeypatch, deadline, full_lutset, workers):
    # Three chunks: the first is this process's range and the last a child's.
    spec = full_lutset.spec
    c = _chunk_words(spec)
    rng = random.Random(7)
    shaped = [encode(full_lutset, BitWord(rng.getrandbits(spec.n_info), spec.n_info)).value for _ in range(3 * c)]
    bad_high, bad_leaf = _bad_above_leaves(full_lutset).value, _bad_leaf_chunk(full_lutset, 7).value
    _force_workers(monkeypatch, workers)
    for bad, location in (({5: bad_high, 2 * c + 5: bad_leaf}, (2, 0)), ({2 * c + 5: bad_leaf}, (1, 7))):
        words = [bad.get(j, w) for j, w in enumerate(shaped)]
        with pytest.raises(InvalidWord) as exc:
            decode_stream(full_lutset, join_words(words, spec.n_out))
        assert (exc.value.layer_index, exc.value.lut_index) == location, bad
        _assert_no_children()


def test_stream_raises_first_invalid_word(tmp_path, capsys, full_lutset):
    # Word j fails at layer 2 and word j + 1 at the leaf, both in the second
    # chunk: going up layer by layer meets word j + 1's miss first, but the
    # stream must report word j's.
    spec = full_lutset.spec
    c = _chunk_words(spec)
    j = c + 5
    rng = random.Random(3)
    shaped = [encode(full_lutset, BitWord(rng.getrandbits(spec.n_info), spec.n_info)).value for _ in range(2 * c)]
    shaped[j] = _bad_above_leaves(full_lutset).value
    shaped[j + 1] = _bad_leaf_chunk(full_lutset, 7).value
    with pytest.raises(InvalidWord) as exc:
        decode(full_lutset, BitWord(shaped[j + 1], spec.n_out))
    assert (exc.value.layer_index, exc.value.lut_index) == (1, 7)
    stream = join_words(shaped, spec.n_out)
    with pytest.raises(InvalidWord) as exc:
        decode_stream(full_lutset, stream)
    assert (exc.value.layer_index, exc.value.lut_index) == (2, 0)

    lut, src, out = tmp_path / "bundled.lut", tmp_path / "shaped.bits", tmp_path / "decoded.bits"
    save_lutset(full_lutset, lut)
    write_bitfile(src, stream)
    assert main(["decode", str(lut), str(src), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: InvalidWord: invalid word at layer 2, lut 0\n"
    assert not out.exists()


def test_stream_raises_chunk_miss_no_word_repeats(monkeypatch, tree3_lutset):
    # A chunk's miss that none of its words shows when re-run on its own
    # still ends the stream with that InvalidWord, and no output.
    spec = tree3_lutset.spec
    shaped = encode_stream(tree3_lutset, join_words([1, 2, 3], spec.n_info))
    decode_words, miss, single = codec._decode_words, InvalidWord(1, 0), []

    def chunk_misses(lutset, words, plan):
        if len(words) > spec.leaf.lut_count:
            raise miss
        single.append(words)
        return decode_words(lutset, words, plan)

    _force_workers(monkeypatch, 1)
    monkeypatch.setattr(codec, "_decode_words", chunk_misses)
    with pytest.raises(InvalidWord) as exc:
        decode_stream(tree3_lutset, shaped)
    assert exc.value is miss
    assert len(single) == 3


def _count_builders(monkeypatch):
    """Record the arguments, less the LutSet, of every call of a plan or mask builder: LutSet's, and split_symbols' own masks."""
    calls = {"info_plan": [], "join_plan": [], "kit_masks": [], "split_masks": []}

    def counted(name, build):
        def wrapper(*args):
            calls[name].append(tuple(a for a in args if not isinstance(a, LutSet)))
            return build(*args)

        return wrapper

    for name in ("info_plan", "join_plan"):
        monkeypatch.setattr(LutSet, name, counted(name, getattr(LutSet, name)))
    monkeypatch.setattr(codec, "split_masks", counted("kit_masks", codec.split_masks))
    monkeypatch.setattr(bits, "split_masks", counted("split_masks", bits.split_masks))
    return calls


def test_one_word_kit_built_once(monkeypatch):
    lutset = synthesize_tree(validate_tree(TREE3_ROWS, 8, 4))
    spec, leaf = lutset.spec, lutset.spec.leaf
    missing = next(w for w in range(1 << leaf.out_bits) if w not in lutset.luts[-1].entries)
    bad = pack_symbols([missing] * leaf.lut_count, leaf.out_bits)
    lutset.encode_slots, lutset.decode_slots  # the tables, which pack symbols too
    assert "one_word" not in vars(lutset)
    calls = _count_builders(monkeypatch)
    for w in range(1 << spec.n_info):
        assert decode(lutset, encode(lutset, BitWord(w, spec.n_info))) == BitWord(w, spec.n_info)
        with pytest.raises(InvalidWord):
            decode(lutset, bad)
    assert calls == {"info_plan": [(1,)], "join_plan": [(1,)], "kit_masks": [(leaf.out_bits, leaf.lut_count)], "split_masks": []}


def test_chunk_miss_reruns_words_with_the_kit(monkeypatch, tree3_lutset):
    # After a chunk's miss, the word-by-word re-run reads LutSet.one_word
    # and builds no one-word plan of its own.
    spec = tree3_lutset.spec
    kit = tree3_lutset.one_word
    good = encode_stream(tree3_lutset, join_words([1, 2], spec.n_info))
    shaped = join_words([good.value >> spec.n_out, _bad_leaf_chunk(tree3_lutset, 0).value, 0], spec.n_out)
    calls = _count_builders(monkeypatch)
    decode_words, plans = codec._decode_words, []

    def recorded(lutset, words, plan):
        plans.append(plan)
        return decode_words(lutset, words, plan)

    _force_workers(monkeypatch, 1)
    monkeypatch.setattr(codec, "_decode_words", recorded)
    with pytest.raises(InvalidWord) as exc:
        decode_stream(tree3_lutset, shaped)
    assert (exc.value.layer_index, exc.value.lut_index) == (1, 0)
    assert calls["join_plan"] == [(3,)] and tree3_lutset.one_word is kit
    assert plans[1:] == [kit.join_plan, kit.join_plan]  # the chunk, then words 0 and 1; word 1 misses


def test_one_word_kit_leaves_equality_and_file_alone(tmp_path):
    lutset = synthesize_tree(validate_tree(TREE3_ROWS, 8, 4))
    path = tmp_path / "tree3.lut"
    save_lutset(lutset, path)
    before = path.read_bytes()
    loaded = load_lutset(path)
    assert "one_word" not in vars(lutset) and "one_word" not in vars(loaded)
    word = BitWord(5, lutset.spec.n_info)
    for built in (lutset, loaded):
        assert lutset == loaded and loaded == lutset and hash(lutset) == hash(loaded)
        decode(built, encode(built, word))
        assert "one_word" in vars(built)
        save_lutset(built, path)
        assert path.read_bytes() == before
    assert lutset == loaded == load_lutset(path)


def test_invalid_word_survives_pickle_and_copy():
    exc = InvalidWord(2, 5)
    for back in (pickle.loads(pickle.dumps(exc)), copy.copy(exc), copy.deepcopy(exc)):
        assert type(back) is InvalidWord
        assert (back.layer_index, back.lut_index, str(back)) == (2, 5, str(exc))


def test_stream_empty(tree3_lutset):
    assert encode_stream(tree3_lutset, BitWord(0, 0)) == BitWord(0, 0)
    assert decode_stream(tree3_lutset, BitWord(0, 0)) == BitWord(0, 0)


def test_stream_partial_block(tree3_lutset):
    spec = tree3_lutset.spec
    ragged = BitWord((1 << spec.n_info) | 1, spec.n_info + 1)
    with pytest.raises(ValueError, match="pad"):
        encode_stream(tree3_lutset, ragged)
    padded = encode_stream(tree3_lutset, ragged, pad=True)
    assert padded.width == 2 * spec.n_out
    # final partial word is zero-padded at its end (MSB-first)
    tail = BitWord(1 << (spec.n_info - 1), spec.n_info)
    assert cut_words(padded, spec.n_out)[1] == encode(tree3_lutset, tail).value


def test_decode_stream_rejects_ragged(tree3_lutset):
    with pytest.raises(ValueError):
        decode_stream(tree3_lutset, BitWord(0, tree3_lutset.spec.n_out + 1))


def test_vector_file_roundtrip(tmp_path, tree3_lutset):
    spec = tree3_lutset.spec
    rng = random.Random(31)
    pairs = []
    for _ in range(8):
        w = BitWord(rng.getrandbits(spec.n_info), spec.n_info)
        pairs.append((w, encode(tree3_lutset, w)))
    path = tmp_path / "vectors.txt"
    dump_test_vectors(path, pairs, spec)
    assert load_test_vectors(path) == pairs
    first = path.read_text().splitlines()[0]
    assert first == f"dmkit-vectors 1 {spec.n_info} {spec.n_out}"


def test_vector_file_errors(tmp_path, tree3_lutset):
    spec = tree3_lutset.spec
    path = tmp_path / "vectors.txt"

    def load(text):
        path.write_text(text)
        return load_test_vectors(path)

    with pytest.raises(ValueError, match="header"):
        load("not-a-vector-file\n")
    with pytest.raises(ValueError, match="two hex fields"):
        load(f"dmkit-vectors 1 {spec.n_info} {spec.n_out}\ndeadbeef\n")
    # Widths that are not positive integers, which once raised int()'s message.
    for widths in ["x 16", "10 1.5", "0 16", "-10 16"]:
        with pytest.raises(ValueError, match="^not a test-vector file: header"):
            load(f"dmkit-vectors 1 {widths}\n")
    # Malformed pairs, each named by its line; the first pair is good. A
    # 10-bit word takes two bytes, its last six bits zero.
    good = f"{BitWord(1, spec.n_info).hex()} {BitWord(0, spec.n_out).hex()}"
    for pair in ["zz 0000", "0040 zz", "00 0000", "0040 00", "0041 0000", "0040 000000"]:
        text = f"dmkit-vectors 1 {spec.n_info} {spec.n_out}\n{good}\n\n{pair}\n"
        with pytest.raises(ValueError, match="^line 4: "):
            load(text)
    with pytest.raises(ValueError):
        dump_test_vectors(path, [(BitWord(0, 1), BitWord(0, 1))], spec)


@settings(max_examples=60, deadline=None)
@given(value=st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_roundtrip_property(value):
    lutset = _tree3()
    word = BitWord(value, 10)
    assert decode(lutset, encode(lutset, word)) == word


_TREE3_CACHE = []


def _tree3():
    if not _TREE3_CACHE:
        _TREE3_CACHE.append(synthesize_tree(validate_tree(TREE3_ROWS, 8, 4)))
    return _TREE3_CACHE[0]
