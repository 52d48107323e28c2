import math
import random

import pytest

from collabnet import syngen
from collabnet.corpus import PublicationRecord, ingest
from collabnet.impact import (
    BaselineCell,
    attach_fwci,
    build_observations,
    compute_baselines,
    make_observation,
    read_observations,
    write_observations,
)


def rec(rid, citations, year=2013, field="F", doctype="article", countries=("US", "CN")):
    return PublicationRecord(
        id=rid, year=year, journal="J", specialty="other", field=field,
        doctype=doctype, countries=tuple(sorted(countries)), citations=citations)


# ------------------------------------------------------------- baselines

def test_cell_mean_of_two_and_four_is_three():
    baselines = compute_baselines([rec("a", 2), rec("b", 4)])
    cell = baselines.get(("F", 2013, "article"))
    assert cell.mean_citations == 3.0
    assert cell.n_papers == 2
    assert cell.usable


def test_all_zero_cell_flagged_unusable():
    baselines = compute_baselines([rec("a", 0), rec("b", 0)])
    cell = baselines.get(("F", 2013, "article"))
    assert cell.mean_citations == 0.0
    assert not cell.usable


def test_baselines_match_independent_group_by():
    cfg = syngen.GenConfig.default(seed=31, n_papers=600)
    records, truth = syngen.generate(cfg)
    corp = ingest(syngen.records_jsonl(records).splitlines(),
                  syngen.specialty_map_for(cfg))
    baselines = compute_baselines(corp)

    # independent tally straight off the generator log
    groups: dict[tuple, list[int]] = {}
    for row in truth:
        groups.setdefault((row.field, row.year, row.doctype), []).append(row.citations)
    assert len(baselines) == len(groups)
    for key, citations in groups.items():
        cell = baselines.get(key)
        assert cell.n_papers == len(citations)
        assert cell.mean_citations == pytest.approx(sum(citations) / len(citations), rel=1e-12)


# ------------------------------------------------------------------ fwci

def test_fwci_at_average_paper_is_one():
    records = [rec("a", 2), rec("b", 2)]
    scores, _ = attach_fwci(records, compute_baselines(records))
    assert scores == {"a": 1.0, "b": 1.0}


def test_fwci_seventeen_point_one_eight_times_average():
    baselines = {("F", 2013, "article"): BaselineCell(100.0, 20, True)}
    scores, _ = attach_fwci([rec("big", 1718)], baselines)
    assert scores["big"] == pytest.approx(17.18, abs=1e-12)


def test_fwci_zero_iff_uncited():
    records = [rec("a", 0), rec("b", 6)]
    scores, excluded = attach_fwci(records, compute_baselines(records))
    assert excluded == []
    assert scores["a"] == 0.0
    assert scores["b"] > 0.0


def test_unusable_and_missing_cells_are_excluded_with_reason():
    records = [rec("a", 0, field="dead"), rec("b", 0, field="dead"),
               rec("c", 4, field="live"), rec("d", 2, field="live")]
    baselines = compute_baselines(records)
    scores, excluded = attach_fwci(records + [rec("e", 1, field="absent", year=1999)],
                                   baselines)
    assert set(scores) == {"c", "d"}
    reasons = dict(excluded)
    assert "unusable baseline cell" in reasons["a"]
    assert "no baseline cell" in reasons["e"]


def test_cell_mean_fwci_is_exactly_one():
    cfg = syngen.GenConfig.default(seed=32, n_papers=800)
    records, _ = syngen.generate(cfg)
    corp = ingest(syngen.records_jsonl(records).splitlines(),
                  syngen.specialty_map_for(cfg))
    baselines = compute_baselines(corp)
    scores, _ = attach_fwci(corp, baselines)
    by_cell: dict[tuple, list[float]] = {}
    for r in corp:
        if r.id in scores:
            by_cell.setdefault((r.field, r.year, r.doctype), []).append(scores[r.id])
    assert by_cell
    for values in by_cell.values():
        assert math.fsum(values) / len(values) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------- observations

def test_two_paper_aggregate():
    records = [rec("a", 0, countries=("US", "CN")), rec("b", 0, countries=("US", "CN"))]
    obs = build_observations(records, {"a": 1.0, "b": 3.0})
    assert len(obs) == 1
    ob = obs[0]
    assert ob.combo_id == ("CN", "US")
    assert ob.publication_count == 2
    assert ob.country_count == 2
    assert ob.mean_fwci == 2.0
    assert ob.log_fwci == pytest.approx(math.log(2.1), abs=0)


def test_three_country_combo_is_canonically_ordered():
    records = [rec("a", 0, countries=("US", "CN", "DE"))]
    obs = build_observations(records, {"a": 1.0})
    assert obs[0].combo_id == ("CN", "DE", "US")
    assert obs[0].country_count == 3
    assert obs[0].combo_key == "CN-DE-US"


def test_single_country_records_excluded():
    records = [rec("a", 0, countries=("US",)), rec("b", 0, countries=("US", "CN"))]
    obs = build_observations(records, {"a": 1.0, "b": 1.0})
    assert len(obs) == 1
    assert obs[0].combo_id == ("CN", "US")


def test_same_combo_in_two_years_yields_two_observations():
    records = [rec("a", 0, year=2008), rec("b", 0, year=2013)]
    obs = build_observations(records, {"a": 1.0, "b": 2.0})
    assert len(obs) == 2
    assert {ob.year for ob in obs} == {2008, 2013}
    assert len({ob.combo_id for ob in obs}) == 1  # one random-effect group


def test_observations_match_brute_force_group_by():
    cfg = syngen.GenConfig.default(seed=33, n_papers=700)
    records, truth = syngen.generate(cfg)
    corp = ingest(syngen.records_jsonl(records).splitlines(),
                  syngen.specialty_map_for(cfg))
    baselines = compute_baselines(corp)
    scores, _ = attach_fwci(corp, baselines)
    obs = build_observations(list(corp), scores)

    expected: dict[tuple, list[str]] = {}
    for row in truth:
        if len(row.countries) < 2:
            continue
        expected.setdefault((tuple(sorted(row.countries)), row.year), []).append(row.id)
    assert {(ob.combo_id, ob.year): ob.publication_count for ob in obs} \
        == {key: len(ids) for key, ids in expected.items()}
    # conservation: observation publication counts sum to retained records
    assert sum(ob.publication_count for ob in obs) \
        == sum(len(ids) for ids in expected.values())


def test_observation_log_consistency_and_offset():
    ob = make_observation(("CN", "US"), 2013, [0.0, 0.0])
    assert ob.mean_fwci == 0.0
    assert ob.log_fwci == pytest.approx(math.log(0.1), abs=0)


def test_observation_csv_round_trip(tmp_path):
    records = [rec("a", 0), rec("b", 0, countries=("DE", "FR", "US"))]
    obs = build_observations(records, {"a": 1.5, "b": 0.25})
    p = tmp_path / "obs.csv"
    write_observations(obs, p)
    back = read_observations(p)
    assert back == obs


def test_observations_are_bit_identical_for_a_permuted_record_list():
    rng = random.Random(7)
    combos = [("CN", "US"), ("DE", "FR", "US"), ("BR", "CL"), ("US",)]
    records = [rec(f"p{i:03d}", 0, year=rng.choice((2008, 2013)), countries=rng.choice(combos))
               for i in range(300)]
    scores = {r.id: rng.lognormvariate(0.0, 2.0) for r in records if rng.random() < 0.9}
    expected = build_observations(records, scores)
    exact = [(ob[:4], ob.mean_fwci.hex(), ob.log_fwci.hex()) for ob in expected]
    order_matters = False
    for _ in range(5):
        shuffled = rng.sample(records, len(records))
        obs = build_observations(shuffled, scores)
        assert [(ob[:4], ob.mean_fwci.hex(), ob.log_fwci.hex()) for ob in obs] == exact
        values = [scores[r.id] for r in shuffled if r.id in scores
                  and (r.countries, r.year) == (expected[0].combo_id, expected[0].year)]
        order_matters |= sum(values) != sum(sorted(values))
    assert order_matters  # a plain running sum would have depended on the order
