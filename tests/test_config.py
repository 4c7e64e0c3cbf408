import json

import pytest

from dmkit import TreeConfigError, builtin_config_path, load_config, parse_config
from conftest import TREE2_ROWS


def write(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_builtin_config_loads():
    cfg = load_config(builtin_config_path())
    assert cfg.spec.n_info == 507
    assert cfg.ccdm_code is not None
    assert cfg.ccdm_code.composition.counts == (157, 104, 46, 13)
    assert cfg.ccdm_code.k == 507
    assert cfg.mb_target_two_h == 7.169


def test_minimal_config(tmp_path):
    cfg = load_config(write(tmp_path, {"m": 8, "m_sb": 4, "layers": TREE2_ROWS}))
    assert cfg.ccdm_code is None
    assert cfg.mb_target_two_h is None


def test_rejects_unknown_fields(tmp_path):
    with pytest.raises(TreeConfigError, match="unknown config fields"):
        load_config(write(tmp_path, {"m": 8, "m_sb": 4, "layers": TREE2_ROWS, "foo": 1}))
    with pytest.raises(TreeConfigError, match="unknown ccdm fields"):
        parse_config(
            {
                "m": 8,
                "m_sb": 4,
                "layers": TREE2_ROWS,
                "ccdm": {"composition": [2, 2], "k": 2, "bad": 1},
            }
        )
    with pytest.raises(TreeConfigError, match="unknown layer field"):
        parse_config({"m": 8, "m_sb": 4, "layers": [{"l": 1, "T": 1, "s": 2, "v": 2, "u": 4, "q": 1}]})


def test_rejects_malformed_sections(tmp_path):
    with pytest.raises(TreeConfigError, match="missing"):
        parse_config({"m": 8, "layers": TREE2_ROWS})
    with pytest.raises(TreeConfigError, match="list"):
        parse_config({"m": 8, "m_sb": 4, "layers": {"l": 1}})
    with pytest.raises(TreeConfigError, match="not an object"):
        parse_config({"m": 8, "m_sb": 4, "layers": ["x"]})
    with pytest.raises(TreeConfigError, match="object"):
        parse_config({"m": 8, "m_sb": 4, "layers": TREE2_ROWS, "ccdm": [1, 2]})
    with pytest.raises(TreeConfigError, match="composition and k"):
        parse_config({"m": 8, "m_sb": 4, "layers": TREE2_ROWS, "ccdm": {"k": 2}})
    with pytest.raises(TreeConfigError, match="list of counts"):
        parse_config({"m": 8, "m_sb": 4, "layers": TREE2_ROWS, "ccdm": {"composition": "2,2", "k": 2}})
    with pytest.raises(TreeConfigError, match="number"):
        parse_config({"m": 8, "m_sb": 4, "layers": TREE2_ROWS, "mb_target_2h": "high"})
    with pytest.raises(TreeConfigError, match="not valid JSON"):
        path = tmp_path / "broken.json"
        path.write_text("{")
        load_config(path)
    with pytest.raises(TreeConfigError, match="JSON object"):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        load_config(path)


def test_rejects_over_capacity_code(tmp_path):
    doc = {"m": 8, "m_sb": 4, "layers": TREE2_ROWS, "ccdm": {"composition": [2, 2], "k": 3}}
    with pytest.raises(TreeConfigError, match="bad ccdm section"):
        parse_config(doc)


@pytest.mark.parametrize("counts, k", [([2, 2], 2), ([1] * 8, 15)], ids=["2-counts", "8-counts"])
def test_rejects_composition_not_of_four_classes(counts, k):
    # Both codes build: the 8-count one once loaded and reported a CCDM
    # column that read its counts as a magnitude pmf.
    doc = {"m": 8, "m_sb": 4, "layers": TREE2_ROWS, "ccdm": {"composition": counts, "k": k}}
    with pytest.raises(TreeConfigError, match=f"composition has {len(counts)} counts, not one per amplitude class"):
        parse_config(doc)
