"""The four workloads: inputs generated from a seed, and fixed job lists.

A job runs one verdict through the program's public calls and returns the
facts it observed; ``known.KNOWN[job.name]`` holds the expected facts.  All
calls into the program go through ``tracer.call`` under the name
``<module>.<function>``, so a traced run gets one span per layer call.
"""

from __future__ import annotations

import importlib
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from . import families as fam
from . import known

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPECS = ROOT / "specs"

MODULES = ("specfile", "concrete", "logicgen", "proofengine", "octagon",
           "cartesian", "syntax")
BUILTIN_NAMES = ("parity", "sign", "interval", "diamond", "threechain", "m3",
                 "octagon-c1")


class SetupError(Exception):
    """The checkout does not hold the program or its builtin specs."""


def import_program(fresh: bool) -> SimpleNamespace:
    """Import the abslog modules from this checkout's ``src``.

    ``fresh`` drops them from ``sys.modules`` first, so the import is paid
    again; only the benchmark process does that, because objects made by
    the old modules must not meet the new ones.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "abslog" or m.startswith("abslog.")]:
            del sys.modules[name]
    try:
        mods = {m: importlib.import_module(f"abslog.{m}") for m in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import abslog from {SRC}: {exc}") from exc
    where = Path(mods["specfile"].__file__).resolve()
    if SRC not in where.parents:
        raise SetupError(f"abslog was imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


def read_spec(name: str) -> str:
    path = SPECS / f"{name}.spec"
    try:
        return path.read_text()
    except OSError as exc:
        raise SetupError(f"cannot read builtin spec {path}: {exc}") from exc


@dataclass
class Job:
    name: str
    run: Callable[[object], dict]  # tracer -> observed facts


# --- job bodies ----------------------------------------------------------------


def _system(P, tr, name: str, text: str):
    abs_ = tr.call("specfile.load", P.specfile.load, text, name)
    report = tr.call("concrete.preservation_report", P.concrete.preservation_report, abs_)
    ps = tr.call("logicgen.generate_proof_system", P.logicgen.generate_proof_system,
                 abs_, report)
    tr.count("logicgen.rules", len(ps.rules))
    return abs_, report, ps


def _gamma_lines(spec_text: str) -> int:
    lines = spec_text.splitlines()
    start = lines.index("GAMMA") + 1
    end = lines.index("AXIOMS") if "AXIOMS" in lines else len(lines)
    return end - start


def verify_pipeline(P, tr, name: str, text: str, soundness_seed: int,
                    limit: dict, outputs: bool) -> dict:
    """Abstraction -> preservation verdict -> calculus -> saturation ->
    Lindenbaum-Tarski -> isomorphism, soundness and completeness."""
    pe = P.proofengine
    abs_, report, ps = _system(P, tr, name, text)
    engine = tr.call("proofengine.engine_init", pe.DerivabilityEngine, ps, **limit)
    tr.call("proofengine.saturate", engine.saturate)
    tr.count("proofengine.generators", len(engine.gen_list))
    lind = tr.call("proofengine.build_lindenbaum", pe.build_lindenbaum, ps, abs_, **limit)
    tr.count("proofengine.lindenbaum.classes", len(lind.classes))
    iso = tr.call("proofengine.verify_isomorphism", pe.verify_isomorphism, abs_, lind)
    sound = tr.call("proofengine.verify_soundness", pe.verify_soundness, abs_, ps,
                    rng_seed=soundness_seed, **limit)
    tr.count("proofengine.soundness.generators_checked", sound.generators_checked)
    tr.count("proofengine.soundness.cells_checked", sound.cells_checked)
    tr.count("proofengine.soundness.replays_checked", sound.replays_checked)
    complete = tr.call("proofengine.verify_completeness", pe.verify_completeness,
                       abs_, ps, **limit)
    tr.count("proofengine.completeness.pairs_checked", complete.pairs_checked)
    facts = {
        "elements": len(abs_.lattice.elements),
        "preserved": report.preserved(),
        "rules": len(ps.rules),
        "classes": len(lind.classes),
        "isomorphism": iso.ok,
        "sound": sound.ok,
        "completeness": complete.status,
    }
    if outputs:
        lg = P.logicgen
        text_out = tr.call("logicgen.render", lg.render, ps, "text")
        latex = tr.call("logicgen.render", lg.render, ps, "latex")
        machine = tr.call("logicgen.render", lg.render, ps, "machine")
        back = tr.call("logicgen.parse_machine", lg.parse_machine, machine)
        emitted = tr.call("specfile.emit", P.specfile.emit, abs_)
        facts.update(text_lines=text_out.count("\n"),
                     latex_rules=latex.count("\\frac"),
                     machine_roundtrip=back == ps,
                     emit_gamma_lines=_gamma_lines(emitted),
                     emit_is_source=emitted == text)
    return facts


def minimize(P, tr, name: str, text: str) -> dict:
    """minimize_proof_system with a fresh-engine derivability oracle."""
    _, _, ps = _system(P, tr, name, text)
    calls = 0

    def oracle(system, sequent):
        nonlocal calls
        calls += 1
        return tr.call("proofengine.derivable", P.proofengine.derivable, system, sequent)

    mini = tr.call("logicgen.minimize_proof_system", P.logicgen.minimize_proof_system,
                   ps, oracle)
    tr.count("proofengine.derivable.calls", calls)
    tr.count("logicgen.minimize.oracle_calls", calls)
    tr.count("logicgen.minimize.removed", len(ps.rules) - len(mini.rules))
    return {
        "order_axioms": sum(r.kind == P.logicgen.KIND_ORDER for r in mini.rules),
        "infeasibility_axioms": sum(r.name.startswith("axiom.") for r in mini.rules),
    }


def point_queries(P, tr, name: str, text: str, queries: list) -> dict:
    """A batch of sequent queries to one shared engine, which saturates only
    until each query is decided (early exit)."""
    _, _, ps = _system(P, tr, name, text)
    engine = tr.call("proofengine.engine_init", P.proofengine.DerivabilityEngine, ps)
    mismatches = 0
    for sequent, expected in queries:
        if tr.call("proofengine.derivable", engine.derivable, sequent) != expected:
            mismatches += 1
    tr.count("proofengine.derivable.calls", len(queries))
    return {"queries": len(queries), "mismatches": mismatches}


def octagon_case(P, tr, lat) -> dict:
    oc = P.octagon
    c = lat.window_c
    abs_ = tr.call("octagon.export_abstraction", oc.export_abstraction, lat, 4 * c)
    irreducible = tr.call("octagon.verify_irreducibility", oc.verify_irreducibility, lat)
    witness = tr.call("octagon.conjunction_nonpreservation_witness",
                      oc.conjunction_nonpreservation_witness, c)
    return {"elements": len(abs_.lattice.elements),
            "extra_axioms": len(abs_.extra_axioms),
            "grid_points": len(abs_.universe),
            "irreducible": irreducible,
            "witness_complete": witness.complete,
            "separations": len(witness.separations)}


def _checked(tr, name: str, fn, *args, **kwargs):
    result = tr.call(name, fn, *args, **kwargs)
    tr.count("cartesian.checked", result.checked)
    return result


def exhaustive_and_sampled(P, tr, check: str, axis, seed: int) -> dict:
    """A Cartesian check exhaustively on axis^2 and sampled in 3-D."""
    fn, name = getattr(P.cartesian, check), f"cartesian.{check}"
    exhaustive = _checked(tr, name, fn, (axis,) * 2)
    sampled = _checked(tr, name, fn, (fam.SAMPLED_AXIS,) * 3,
                       sample=fam.CARTESIAN_SAMPLE, rng_seed=seed)
    return {"exhaustive_ok": exhaustive.ok, "exhaustive_checked": exhaustive.checked,
            "sampled_ok": sampled.ok, "sampled_checked": sampled.checked}


def injective_product(P, tr, parity) -> dict:
    ca = P.cartesian
    inj = _checked(tr, "cartesian.check_iota_injective_on_nonempty",
                   ca.check_iota_injective_on_nonempty, fam.INJECTIVE_AXIS)
    pa = tr.call("cartesian.product", ca.product, [parity, parity])
    crit = _checked(tr, "cartesian.product_embedding_criterion",
                    ca.product_embedding_criterion, pa)
    emb = tr.call("concrete.check_order_embedding", P.concrete.check_order_embedding,
                  pa.abstraction)
    return {"injective_ok": inj.ok, "injective_checked": inj.checked,
            "collisions": inj.note,
            "product_elements": len(pa.abstraction.lattice.elements),
            "criterion_ok": crit.ok, "criterion_checked": crit.checked,
            "collapsed": crit.note, "order_embedding": emb.is_embedding}


# --- workloads -----------------------------------------------------------------


VARIANTS = 8  # seeded variants per job; successive runs of a job take them in turn


def _variants(rng: random.Random, make=lambda rng: rng.randrange(1 << 31)):
    """Cycle through VARIANTS inputs made from ``rng``.  Spreading a run's
    passes over several variants keeps one unlucky draw from moving a
    whole run's percentiles."""
    return itertools.cycle([make(rng) for _ in range(VARIANTS)])


def build_builtins(P, seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for name in BUILTIN_NAMES:
        text, seeds = read_spec(name), _variants(rng)
        jobs.append(Job(f"builtins/{name}",
                        lambda tr, name=name, text=text, seeds=seeds: verify_pipeline(
                            P, tr, name, text, next(seeds), {}, outputs=True)))
    return jobs


def build_scaling(P, seed: int) -> list[Job]:
    oc, ca = P.octagon, P.cartesian
    parity = P.specfile.load(read_spec("parity"), "parity")
    inputs = [(f"chain-{fam.CHAIN_SCALING}", fam.chain_text(fam.CHAIN_SCALING))]
    for c in fam.OCTAGON_SCALING:
        exported = oc.export_abstraction(oc.OctLattice.build(c), 4 * c)
        inputs.append((f"octagon-c{c}", P.specfile.emit(exported)))
    inputs.append((f"boolean-{fam.BOOLEAN_BITS}", fam.boolean_text(fam.BOOLEAN_BITS)))
    inputs.append(("parity-x-parity",
                   P.specfile.emit(ca.product([parity, parity]).abstraction)))
    rng = random.Random(seed)
    jobs = []
    for name, text in inputs:
        # the carriers exceed the default saturation guard of 14 predicates
        limit = {"max_predicates": known.KNOWN[f"scaling/{name}"]["elements"]}
        jobs.append(Job(f"scaling/{name}",
                        lambda tr, name=name, text=text, seeds=_variants(rng), limit=limit:
                        verify_pipeline(P, tr, name, text, next(seeds), limit,
                                        outputs=False)))
    return jobs


def _point_batch(P, family: str, rng: random.Random) -> list:
    """Seeded sequents with their known answers, as program objects."""
    Pred, Const, Sequent = P.syntax.Pred, P.syntax.Const, P.syntax.Sequent
    out = []
    if family.startswith("octagon"):
        preds = fam.octagon_predicates(1)
        names = ["bot", "top", *preds]
        for _ in range(fam.POINT_QUERIES):
            a, b = rng.choice(names), rng.choice(names)
            if rng.random() < 0.5:
                out.append((Sequent((Pred(a),), (Pred(b),)),
                            known.octagon_leq(a, b, preds)))
            else:
                out.append((Sequent((Pred(a), Pred(b)), (Const("ff"),)),
                            known.octagon_disjoint(a, b, preds)))
        return out
    if family.startswith("chain"):
        names, answer = fam.chain_names(fam.CHAIN_QUERIES), known.chain_derivable
    else:
        bits = fam.BOOLEAN_BITS
        names = [fam.boolean_name(m, bits) for m in range(1 << bits)]
        answer = known.boolean_derivable
    for _ in range(fam.POINT_QUERIES):
        ante = rng.choices(names, k=rng.randint(1, 2))
        succ = rng.choices(names, k=rng.randint(1, 2))
        out.append((Sequent(tuple(map(Pred, ante)), tuple(map(Pred, succ))),
                    answer(ante, succ)))
    return out


def build_queries(P, seed: int) -> list[Job]:
    texts = {name: read_spec(name) for name in ("parity", "interval", "octagon-c1")}
    texts[f"chain-{fam.CHAIN_QUERIES}"] = fam.chain_text(fam.CHAIN_QUERIES)
    texts[f"boolean-{fam.BOOLEAN_BITS}"] = fam.boolean_text(fam.BOOLEAN_BITS)
    jobs = [Job(f"queries/minimize-{name}",
                lambda tr, name=name: minimize(P, tr, name, texts[name]))
            for name in known.MINIMIZED]
    rng = random.Random(seed)
    for name in known.POINT_BATCHES:
        batches = _variants(rng, lambda rng, name=name: _point_batch(P, name, rng))
        jobs.append(Job(f"queries/points-{name}",
                        lambda tr, name=name, batches=batches: point_queries(
                            P, tr, name, texts[name], next(batches))))
    return jobs


def build_casestudies(P, seed: int) -> list[Job]:
    jobs = []
    for c in fam.OCTAGON_CASES:
        lat = P.octagon.OctLattice.build(c)
        jobs.append(Job(f"casestudies/octagon-c{c}",
                        lambda tr, lat=lat: octagon_case(P, tr, lat)))
    rng = random.Random(seed)
    galois_seeds, meets_seeds = _variants(rng), _variants(rng)
    parity = P.specfile.load(fam.parity_text(*fam.PRODUCT_WINDOW), "parity4")
    jobs += [
        Job("casestudies/galois", lambda tr: exhaustive_and_sampled(
            P, tr, "check_galois", fam.GALOIS_AXIS, next(galois_seeds))),
        Job("casestudies/meets", lambda tr: exhaustive_and_sampled(
            P, tr, "check_iota_preserves_meets", fam.MEETS_AXIS, next(meets_seeds))),
        Job("casestudies/injective-product",
            lambda tr: injective_product(P, tr, parity)),
    ]
    return jobs


# Why each workload exists, and which layer it stresses.
WORKLOADS = {
    "builtins": (build_builtins,
                 "the 7 builtin specs through the full pipeline plus render, "
                 "parse_machine and emit; soundness and concrete sets dominate"),
    "scaling": (build_scaling,
                "chain 20, octagon C=2,3, Boolean 2^3 and parity x parity through "
                "the pipeline; saturation dominates"),
    "queries": (build_queries,
                "minimization with a fresh-engine oracle and seeded point queries "
                "to one engine with early exit"),
    "casestudies": (build_casestudies,
                    "octagon and Cartesian checks, which use no proof engine"),
}
