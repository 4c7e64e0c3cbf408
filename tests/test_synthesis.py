import dataclasses
import json
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkit import (
    CLASS_BITS,
    CLASS_ENERGIES,
    BitWord,
    LayerParams,
    LutFormatError,
    TreeConfigError,
    decode,
    decode_stream,
    encode,
    encode_stream,
    exact_class_pmf,
    load_lutset,
    save_lutset,
    synthesize_leaf_lut,
    synthesize_parent_lut,
    synthesize_tree,
    unpack_symbols,
    validate_tree,
)
from dmkit.bits import read_slots, split_symbols
from dmkit.synthesis import _field_sums, _ranked_lut, field_slots
from conftest import ALL_TREES, SINGLE_ROWS, TREE2_ROWS, TREE3_ROWS, join_words, tree_rows


# --- independent selection oracle ------------------------------------------
# Recomputes every layer's selection from scratch using string slicing, so
# it shares no bit plumbing with the implementation.


def oracle_leaf(v, u, energies):
    scored = []
    for p in range(2**u):
        text = format(p, f"0{u}b")
        e = sum(energies[int(text[2 * i : 2 * i + 2], 2)] for i in range(u // 2))
        scored.append((e, p))
    scored.sort()
    return scored[: 2**v]

def oracle_parent(v, u, r_child, bands):
    t = u // r_child
    scored = []
    for w in range(2**u):
        text = format(w, f"0{u}b")
        e = sum(bands[int(text[r_child * j : r_child * (j + 1)], 2)] for j in range(t))
        scored.append((e, w))
    scored.sort()
    return scored[: 2**v]

def oracle_bands(scored, r, s):
    if r is None:
        return [sum(e for e, _ in scored) / len(scored)]
    return [
        sum(e for e, _ in scored[b * 2**s : (b + 1) * 2**s]) / 2**s
        for b in range(2**r)
    ]


def full_sort(layer, cost):
    """layer's entries and band energies from a sort of all 2^u words, the ranking without its pruning."""
    sums = _field_sums(cost, layer.out_bits)
    kept = sorted(range(2**layer.out_bits), key=sums.__getitem__)[: 2**layer.in_bits]
    size = 2**layer.info_bits
    bands = [sum(map(sums.__getitem__, kept[b : b + size])) / size for b in range(0, len(kept), size)]
    return tuple(kept), tuple(bands)


def scores(lut, cost):
    """Each entry's score: cost[field] summed over its log2(len(cost))-bit fields, leftmost first."""
    width = len(cost).bit_length() - 1
    mask = (1 << width) - 1
    return [sum(cost[(w >> k) & mask] for k in range(lut.out_bits - width, -1, -width)) for w in lut.entries]


def layer_costs(lutset):
    """The field costs each layer of lutset was ranked by: the band energies below it, class energies at the leaf."""
    return [child.band_energy for child in lutset.luts[1:]] + [CLASS_ENERGIES]


# --- single-layer synthesis --------------------------------------------------


def test_leaf_one_symbol():
    layer = LayerParams(layer_index=1, lut_count=1, info_bits=1, in_bits=1, out_bits=2)
    lut = synthesize_leaf_lut(layer)
    assert lut.entries == (0b00, 0b01)
    assert scores(lut, CLASS_ENERGIES) == [5.0, 37.0]


def test_leaf_seven_layer_table(full_lutset):
    leaf = full_lutset.luts[-1]
    assert len(leaf.entries) == 512
    assert leaf.entries[0] == 0
    assert scores(leaf, CLASS_ENERGIES)[0] == 25.0  # five cheapest-class symbols


def test_leaf_keep_all_sorted():
    layer = LayerParams(layer_index=1, lut_count=1, info_bits=4, in_bits=4, out_bits=4)
    lut = synthesize_leaf_lut(layer)
    assert sorted(lut.entries) == list(range(16))
    assert scores(lut, CLASS_ENERGIES) == sorted(scores(lut, CLASS_ENERGIES))


def test_parent_two_band_example():
    layer = LayerParams(
        layer_index=2, lut_count=1, info_bits=1, in_bits=1, out_bits=2, fanin=None, parent_bits=None
    )
    lut = synthesize_parent_lut(layer, (5.0, 37.0))
    # candidate energies: 00 -> 10, 01 -> 42, 10 -> 42, 11 -> 74; the value
    # tie-break keeps 01 over 10
    assert lut.entries == (0b00, 0b01)
    assert scores(lut, (5.0, 37.0)) == [10.0, 42.0]


def test_parent_keep_all():
    layer = LayerParams(layer_index=2, lut_count=1, info_bits=4, in_bits=4, out_bits=4)
    lut = synthesize_parent_lut(layer, (1.0, 10.0))
    assert sorted(lut.entries) == list(range(16))
    assert scores(lut, (1.0, 10.0)) == sorted(scores(lut, (1.0, 10.0)))


def test_parent_layer2_of_full_tree(full_lutset):
    lut = full_lutset.luts[-2]
    assert len(lut.entries) == 2048
    assert lut.entries[0] == 0


def test_parent_rejects_bad_band_table():
    layer = LayerParams(layer_index=2, lut_count=1, info_bits=2, in_bits=2, out_bits=4)
    with pytest.raises(ValueError, match="power of two"):
        synthesize_parent_lut(layer, (1.0, 2.0, 3.0))


def test_parent_rejects_a_decreasing_band_table():
    # Ranking would prune words cheaper than the ones it keeps.
    layer = LayerParams(layer_index=2, lut_count=1, info_bits=2, in_bits=2, out_bits=4)
    with pytest.raises(ValueError, match=r"^field cost 1 is 5\.0, below field cost 0, 37\.0$"):
        synthesize_parent_lut(layer, (37.0, 5.0, 101.0, 1.0))


@pytest.mark.parametrize(
    "bands, index", [((5.0, 37.0, math.nan, 101.0), 2), ((-math.inf, 5.0), 0), ((5.0, math.inf), 1)], ids=["nan", "-inf", "inf"]
)
def test_parent_rejects_a_band_energy_that_is_not_finite(bands, index):
    layer = LayerParams(layer_index=2, lut_count=1, info_bits=2, in_bits=2, out_bits=4)
    with pytest.raises(ValueError, match=f"^field cost {index} is {bands[index]!r}, not a finite number$"):
        synthesize_parent_lut(layer, bands)


# validate_tree rejects these widths first, so the layers are built raw.
@pytest.mark.parametrize(
    "in_bits, out_bits, message", [(1, 3, "not divisible by 2"), (6, 4, "exceeds")], ids=["odd-u", "v-over-u"]
)
def test_leaf_rejects_bad_widths(in_bits, out_bits, message):
    layer = LayerParams(layer_index=1, lut_count=1, info_bits=in_bits, in_bits=in_bits, out_bits=out_bits)
    with pytest.raises(ValueError, match=message):
        synthesize_leaf_lut(layer)


def test_parent_rejects_u_off_the_child_field_width():
    layer = LayerParams(layer_index=2, lut_count=1, info_bits=2, in_bits=2, out_bits=5)
    with pytest.raises(ValueError, match="not a multiple of the child field width 2"):
        synthesize_parent_lut(layer, (1.0, 2.0, 3.0, 4.0))


# --- whole-tree synthesis vs the oracle --------------------------------------


@pytest.mark.parametrize("rows", [TREE2_ROWS, TREE3_ROWS], ids=["two-layer", "three-layer"])
def test_tree_matches_selection_oracle(rows):
    spec = validate_tree(rows, 8, 4)
    lutset = synthesize_tree(spec)
    scored = oracle_leaf(spec.leaf.in_bits, spec.leaf.out_bits, CLASS_ENERGIES)
    bands = oracle_bands(scored, spec.leaf.parent_bits, spec.leaf.info_bits)
    assert scored_entries(lutset, 1) == (scored, bands)
    for layer_index in range(2, spec.depth + 1):
        layer = spec.layers[spec.depth - layer_index]
        child = spec.layers[spec.depth - layer_index + 1]
        scored = oracle_parent(layer.in_bits, layer.out_bits, child.parent_bits, bands)
        bands = oracle_bands(scored, layer.parent_bits, layer.info_bits)
        assert scored_entries(lutset, layer_index) == (scored, bands)


def scored_entries(lutset, layer_index):
    # Scores and band means must equal the oracle's to the last bit.
    i = lutset.spec.depth - layer_index
    lut = lutset.luts[i]
    return list(zip(scores(lut, layer_costs(lutset)[i]), lut.entries)), list(lut.band_energy)


# Costs with exact ties (repeated values, 0 + 1 = 1 + 0), near ties
# (0.1 + 0.2 against 0.3) and sums that round (1e16 + 1).
COST_POOL = (-1.5, 0.0, 0.1, 0.2, 0.3, 1.0, 1.0 + 2**-52, 3.0, 1e16)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_ranked_lut_equals_the_full_sort(data):
    # 1-4 fields of 1-4 bits, u <= 12, every v <= u, random non-decreasing costs.
    width = data.draw(st.integers(1, 4), label="width")
    u = width * data.draw(st.integers(1, min(4, 12 // width)), label="fields")
    cost = sorted(data.draw(st.lists(st.sampled_from(COST_POOL), min_size=2**width, max_size=2**width), label="cost"))
    for v in range(u + 1):
        layer = LayerParams(layer_index=1, lut_count=1, info_bits=data.draw(st.integers(0, v), label="s"), in_bits=v, out_bits=u)
        lut = _ranked_lut(layer, cost)
        assert (lut.entries, lut.band_energy) == full_sort(layer, cost), v


@pytest.mark.parametrize("fixture", ALL_TREES)
def test_every_fixture_layer_equals_the_full_sort(fixture, request):
    lutset = request.getfixturevalue(fixture)
    for layer, lut, cost in zip(lutset.spec.layers, lutset.luts, layer_costs(lutset)):
        assert (lut.entries, lut.band_energy) == full_sort(layer, cost), layer.layer_index


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=tree_rows())
def test_random_trees_rank_save_and_round_trip(rows):
    lutset = synthesize_tree(validate_tree(rows, 8, 4))
    spec = lutset.spec
    for layer, lut, cost in zip(spec.layers, lutset.luts, layer_costs(lutset)):
        assert (lut.entries, lut.band_energy) == full_sort(layer, cost), layer.layer_index
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp, "tree.lut"), Path(tmp, "again.lut")
        save_lutset(lutset, path)
        loaded = load_lutset(path)
        assert loaded == lutset
        save_lutset(loaded, again)
        assert again.read_bytes() == path.read_bytes()
    # The whole codebook as one stream: every information word, in order.
    words = join_words(range(2**spec.n_info), spec.n_info)
    shaped = encode_stream(lutset, words)
    assert shaped.width == spec.n_out << spec.n_info
    assert decode_stream(lutset, shaped) == words
    # One-word encode and decode (LutSet.one_word) against the stream, on
    # the first and last words and every 2^(n - 4)-th word between them.
    last = 2**spec.n_info - 1
    for w in sorted({0, last, *range(0, last, max(1, last >> 4))}):
        out = BitWord((shaped.value >> (spec.n_out * (last - w))) & ((1 << spec.n_out) - 1), spec.n_out)
        assert encode(lutset, BitWord(w, spec.n_info)) == out, w
        assert decode(lutset, out) == BitWord(w, spec.n_info), w
    # The exact pmf is the class ratio of the codebook, to the last bit.
    classes = split_symbols(shaped, CLASS_BITS)
    assert exact_class_pmf(lutset) == tuple(classes.count(c) / len(classes) for c in range(1 << CLASS_BITS))


def test_single_layer_tree_is_one_leaf():
    spec = validate_tree(SINGLE_ROWS, 8, 4)
    lutset = synthesize_tree(spec)
    assert len(lutset.luts) == 1
    scored = oracle_leaf(2, 4, CLASS_ENERGIES)
    assert list(lutset.luts[0].entries) == [w for _, w in scored]


# --- table invariants ---------------------------------------------------------


def test_tables_injective_and_sorted(full_lutset):
    for lut, cost in zip(full_lutset.luts, layer_costs(full_lutset)):
        assert len(set(lut.entries)) == len(lut.entries)
        pairs = list(zip(scores(lut, cost), lut.entries))
        assert pairs == sorted(pairs)


def test_band_energy_monotone(request):
    # Ranking a parent prunes its words by this order of its field costs.
    for name in ALL_TREES:
        for lut in request.getfixturevalue(name).luts:
            assert list(lut.band_energy) == sorted(lut.band_energy), (name, lut.layer_index)


def test_decode_slots_invert_entries(full_lutset):
    # The record of entries[e]: e's r high bits in a 2-byte slot, then its s
    # low bits as text, 2 + s bytes; every other word has none.
    layers = full_lutset.spec.layers
    for layer, lut, records in zip(layers, full_lutset.luts, full_lutset.decode_slots):
        s = layer.info_bits
        assert len(records) == 1 << lut.out_bits
        assert records.count(None) == len(records) - len(lut.entries)
        assert len(lut.entries) == 1 << lut.in_bits
        for e, w in enumerate(lut.entries):
            low = format(e, "016b")[16 - s :].encode()
            assert records[w] == (e >> s).to_bytes(2, "big") + low
            assert len(records[w]) == 2 + s


@pytest.mark.parametrize("name", ALL_TREES)
def test_join_plan_inverts_info_plan(request, name):
    # Decode gathers info_plan's pieces, group after group of info_groups;
    # join_plan must put them back in word order. On split_s_lutset (s = 2,
    # 1, 2) the group order is not the layer order. The stream round trip
    # gathers them from the decode records.
    lutset = request.getfixturevalue(name)
    n_info = lutset.spec.n_info
    rng = random.Random(name)
    for n_words in (1, 2, 7, 8, 9, 127, 128, 129):
        words = BitWord(rng.getrandbits(n_words * n_info), n_words * n_info)
        text = format(words.value, f"0{words.width}b")
        gathered = "".join([piece for cut in lutset.info_plan(n_words) for piece in cut(text)])
        assert "".join(lutset.join_plan(n_words)(gathered)) == text, (name, n_words)
        assert decode_stream(lutset, encode_stream(lutset, words)) == words, (name, n_words)


def test_field_columns(full_lutset):
    # Column j holds field j of entry e in 16-bit slot e.
    spec = full_lutset.spec
    widths = [child.parent_bits for child in spec.layers[1:]] + [CLASS_BITS]
    for lut, width in zip(full_lutset.luts, widths):
        n = len(lut.entries)
        columns = [read_slots(x.to_bytes(2 * n, "big")) for x in field_slots(lut, width)]
        assert len(columns) == lut.out_bits // width
        for e, w in enumerate(lut.entries):
            assert tuple(column[e] for column in columns) == unpack_symbols(BitWord(w, lut.out_bits), width)
    # The views are caches: equality still compares spec and tables only.
    assert synthesize_tree(spec) == full_lutset


def test_synthesis_deterministic(full_spec, full_lutset):
    assert synthesize_tree(full_spec) == full_lutset


# --- serialization -------------------------------------------------------------


def test_save_load_roundtrip(tmp_path, request):
    # Every fixture tree, one after another: fanin 1, 3 and 4, s = 0 layers,
    # a 9-bit parent field, 16-bit tables and one-LUT trees.
    for name in ALL_TREES:
        lutset = request.getfixturevalue(name)
        path = tmp_path / f"{name}.lut"
        save_lutset(lutset, path)
        loaded = load_lutset(path)
        assert loaded == lutset, name
        # byte-identical on re-save
        again = tmp_path / "again.lut"
        save_lutset(loaded, again)
        assert path.read_bytes() == again.read_bytes(), name


def first_left_out(lutset, layer):
    """The first word the ranking of lutset.luts[layer] left out, by the selection oracle."""
    lut = lutset.luts[layer]
    if layer == -1:
        ranked = oracle_leaf(lut.out_bits, lut.out_bits, CLASS_ENERGIES)
    else:
        bands = lutset.luts[layer + 1].band_energy
        ranked = oracle_parent(lut.out_bits, lut.out_bits, len(bands).bit_length() - 1, bands)
    kept = len(lut.entries)
    assert [w for _, w in ranked[:kept]] == list(lut.entries)
    return ranked[kept][1]


@pytest.mark.parametrize("layer", [0, -1], ids=["top", "leaf"])
@pytest.mark.parametrize("edit", ["swapped", "duplicate", "not-cheapest"])
def test_load_names_the_first_entry_off_the_table(tmp_path, tree2_lutset, edit, layer):
    # A file holding a table other than the synthesized one, written by
    # save_lutset, fails to load and names the layer and the first entry
    # that differs. An entry wider than u cannot be written: save_lutset
    # refuses it.
    lut = tree2_lutset.luts[layer]
    entries = list(lut.entries)
    if edit == "swapped":
        entries[0], entries[1] = entries[1], entries[0]
        first = 0
    elif edit == "duplicate":
        entries[1] = entries[0]
        first = 1
    else:
        # Still strictly ascending in (energy, value), but not the cheapest words.
        entries[-1] = first_left_out(tree2_lutset, layer)
        first = len(entries) - 1
    luts = list(tree2_lutset.luts)
    luts[layer] = dataclasses.replace(lut, entries=tuple(entries))
    path = tmp_path / "edited.lut"
    save_lutset(dataclasses.replace(tree2_lutset, luts=tuple(luts)), path)
    with pytest.raises(LutFormatError, match=f"^layer {lut.layer_index}: entry {first} is not the synthesized table's$"):
        load_lutset(path)


def test_load_rejects_corruption(tmp_path, tree2_lutset):
    path = tmp_path / "t.lut"
    save_lutset(tree2_lutset, path)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "magic.lut"
    bad.write_bytes(b"NOTALUT0" + raw[8:])
    with pytest.raises(LutFormatError, match="magic"):
        load_lutset(bad)

    trunc = tmp_path / "trunc.lut"
    trunc.write_bytes(raw[:-1])
    with pytest.raises(LutFormatError):
        load_lutset(trunc)

    # A byte count past the end of the file allocates nothing of its size.
    huge = tmp_path / "huge.lut"
    huge.write_bytes(bytes(raw[:8]) + (1 << 26).to_bytes(4, "little") + b"{}")
    tracemalloc.start()
    with pytest.raises(LutFormatError, match="^file ends inside a block of 67108864 bytes$"):
        load_lutset(huge)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20

    extra = tmp_path / "extra.lut"
    extra.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(LutFormatError, match="trailing"):
        load_lutset(extra)

    # Header edits that once escaped as AttributeError, KeyError or TypeError,
    # and class-energy tables other than the labeling's, which once loaded
    # silently as a different table.
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + header_len])
    payload = bytes(raw[12 + header_len :])
    edits = [
        [],
        {**header, "layers": "x"},
        {k: v for k, v in header.items() if k != "m"},
        {k: v for k, v in header.items() if k != "spec_sha256"},
        {**header, "class_energy": 3},
        {**header, "class_energy": [5.0, 37.0, 101.0, 19710.0]},
        {**header, "class_energy": [5.0, 37.0, 101.0]},
        # Format numbers that equal 1 in Python but are not the integer 1.
        {**header, "format": True},
        {**header, "format": 1.0},
    ]
    edited = tmp_path / "header.lut"
    for doc in edits:
        blob = json.dumps(doc).encode()
        edited.write_bytes(bytes(raw[:8]) + len(blob).to_bytes(4, "little") + blob + payload)
        with pytest.raises(LutFormatError, match="header"):
            load_lutset(edited)

    # Headers that carry the same spec in another form: each loaded once.
    canonical = {"sort_keys": True, "separators": (",", ":")}
    other_forms = [
        ({**header, "note": 0}, canonical, "header key 'note'"),
        (header, {}, "header is not save_lutset's canonical JSON"),
        ({**header, "layers": [{k: v for k, v in row.items() if k != "T"} for row in header["layers"]]}, canonical, "header key 'layers'"),
        ({**header, "layers": header["layers"][::-1]}, canonical, "header key 'layers'"),
        # Once a GranularityViolation: the modulation is not read from the header.
        ({**header, "m": 16}, canonical, "header key 'm'"),
    ]
    for doc, form, message in other_forms:
        blob = json.dumps(doc, **form).encode()
        edited.write_bytes(bytes(raw[:8]) + len(blob).to_bytes(4, "little") + blob + payload)
        with pytest.raises(LutFormatError, match=f"^{message}"):
            load_lutset(edited)

    # The leaf blob one byte longer, its byte count raised to match.
    leaf = len(raw) - (len(tree2_lutset.luts[-1].entries) * 4 + 7) // 8
    longer = tmp_path / "longer.lut"
    size = int.from_bytes(raw[leaf - 4 : leaf], "little")
    longer.write_bytes(bytes(raw[: leaf - 4]) + (size + 1).to_bytes(4, "little") + bytes(raw[leaf:]) + b"\x00")
    with pytest.raises(LutFormatError, match=f"^layer 1: blob has {size + 1} bytes, expected {size}$"):
        load_lutset(longer)

    # Two entries of u = 2 bits per layer leave four padding bits in each blob.
    padded_rows = [{"l": 2, "T": 1, "s": 1, "v": 1, "u": 2}, {"l": 1, "t": 2, "r": 1, "s": 0, "v": 1, "u": 2}]
    save_lutset(synthesize_tree(validate_tree(padded_rows, 8, 4)), path)
    raw = bytearray(path.read_bytes())
    assert load_lutset(path).spec.depth == 2
    raw[-1] |= 0x80
    padding = tmp_path / "padding.lut"
    padding.write_bytes(bytes(raw))
    with pytest.raises(LutFormatError, match="^layer 1: nonzero padding bits$"):
        load_lutset(padding)



# --- corrupted files ---------------------------------------------------------


@pytest.fixture(scope="module")
def tree2_lutfile(tmp_path_factory, tree2_lutset):
    path = tmp_path_factory.mktemp("corrupt") / "tree2.lut"
    save_lutset(tree2_lutset, path)
    return path


def _loads_as(path, data: bytes):
    """load_lutset of data, or None when it is rejected with a typed error."""
    path.write_bytes(data)
    try:
        return load_lutset(path)
    except (LutFormatError, TreeConfigError):
        return None


def test_every_payload_byte_flip_is_rejected(tree2_lutfile):
    # One such flip, in the last leaf byte, once loaded as a different table.
    raw = tree2_lutfile.read_bytes()
    header_len = int.from_bytes(raw[8:12], "little")
    edited = tree2_lutfile.with_name("flipped.lut")
    for pos in range(12 + header_len, len(raw)):
        for flip in range(1, 256):
            data = bytearray(raw)
            data[pos] ^= flip
            assert _loads_as(edited, bytes(data)) is None, (pos, flip)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_lut_never_loads_as_another_table(tree2_lutfile, tree2_lutset, data):
    raw = tree2_lutfile.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        edited = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        buf = bytearray(raw)
        positions = data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=3, unique=True), label="positions")
        for pos in positions:
            buf[pos] ^= data.draw(st.integers(1, 255), label="flip")
        edited = bytes(buf)
    loaded = _loads_as(tree2_lutfile.with_name("edited.lut"), edited)
    assert loaded is None or loaded == tree2_lutset
