"""The benchmark's own tests: known answers, generated inputs, smoke runs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json

import pytest

from perfbench import families as fam
from perfbench import known
from perfbench.probe import SpeedClock
from perfbench.run import END_TO_END, PER_LAYER, end_to_end, measure, per_layer
from perfbench.workloads import ROOT, WORKLOADS, import_program


@pytest.fixture(scope="module")
def program():
    return import_program(fresh=False)


@pytest.fixture(scope="module")
def jobs(program):
    return {name: build(program, 7) for name, (build, _) in WORKLOADS.items()}


def test_every_job_has_a_known_answer(jobs):
    names = [job.name for js in jobs.values() for job in js]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(known.KNOWN)


def test_generated_family_specs_load(program):
    load = program.specfile.load
    chain = load(fam.chain_text(fam.CHAIN_SCALING), "chain")
    assert chain.lattice.elements == tuple(fam.chain_names(fam.CHAIN_SCALING))
    assert chain.gamma("c0").members == frozenset()
    assert chain.gamma(f"c{fam.CHAIN_SCALING - 1}").members == chain.universe.point_set
    boolean = load(fam.boolean_text(fam.BOOLEAN_BITS), "boolean")
    assert len(boolean.lattice.elements) == 1 << fam.BOOLEAN_BITS
    assert boolean.lattice.unary_ops["negation"].table["b011"] == "b100"
    parity = load(fam.parity_text(*fam.PRODUCT_WINDOW), "parity4")
    assert len(parity.universe) == fam.PRODUCT_WINDOW[1] - fam.PRODUCT_WINDOW[0] + 1
    octagon = program.octagon.OctLattice.build(1)
    assert set(octagon.carrier) == {"bot", "top", *fam.octagon_predicates(1)}


def test_known_answers_agree_on_point_query_orders():
    preds = fam.octagon_predicates(1)
    assert known.octagon_leq("p:+x+y>=1", "p:+x+y>=0", preds)
    assert not known.octagon_leq("p:+x+y>=0", "p:+x-y>=0", preds)
    assert known.octagon_disjoint("p:+x+y>=0", "p:-x-y>=1", preds)
    assert not known.octagon_disjoint("p:+x+y>=0", "p:-x-y>=0", preds)
    assert known.chain_derivable(["c3", "c5"], ["c1", "c3"])
    assert not known.boolean_derivable(["b011"], ["b001"])


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_pass_smoke(jobs, workload):
    m, tracer = measure(jobs[workload], 0, traced=True, clock=SpeedClock(), warmup_s=0)
    assert len(m.verdict_ms) == len(jobs[workload])
    assert m.failed == 0  # failed_frac == 0
    layers = per_layer(m, tracer)
    assert layers["trace.harness.ms"] >= 0
    assert set(end_to_end(m, 0.1)) == set(END_TO_END)
