"""Randomized end-to-end soundness: random nilpotent towers, every
definitive verdict re-verified from its serialized certificate."""

import itertools
import json
import random

from pklie.cxstruct import (
    ComplexStructureSpec,
    JClass,
    ascending_series,
    closed_coframe_obstruction,
)
from pklie.exterior import ComplexForm, MultiIndex, apply_antiderivation
from pklie.linalg import kernel
from pklie.pkahler import PKVerdict, find_pkahler, verify_report
from pklie.positivity import SearchBudget
from pklie.scalars import GaussianRational, ZERO


def random_tower(n, rng):
    """Random nilpotent structure: each d a^j is a closed (2,0)+(1,1)
    combination of the generators below it, so d^2 = 0 and integrability
    hold by construction."""
    eqs = [ComplexForm.zero(n)]
    for j in range(2, n + 1):
        idx = range(1, j)
        cands = [MultiIndex((a, b), ()) for a, b in itertools.combinations(idx, 2)]
        cands += [MultiIndex((a,), (b,)) for a in idx for b in idx]
        d_holo = eqs + [ComplexForm.zero(n)] * (n - len(eqs))
        images = [
            apply_antiderivation(ComplexForm(n, {key: GaussianRational(1)}), d_holo)
            for key in cands
        ]
        keys = sorted({k for img in images for k in img.terms})
        if keys:
            rows = [[img.terms.get(k, ZERO) for img in images] for k in keys]
            sols = kernel(rows, len(cands))
        else:
            sols = [
                [GaussianRational(1 if i == m else 0) for m in range(len(cands))]
                for i in range(len(cands))
            ]
        combo = ComplexForm.zero(n)
        for _ in range(rng.randint(0, 2)):
            vec = rng.choice(sols)
            c = GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1))
            for x, key in zip(vec, cands):
                combo = combo + ComplexForm(n, {key: x * c})
        eqs.append(combo)
    return ComplexStructureSpec.from_equations(eqs)


def test_random_towers_all_verdicts_reverify():
    rng = random.Random(12)
    budget = SearchBudget(restarts=8, steps=60, witness_cap=4)
    definitive = 0
    for trial in range(20):
        n = 3 if trial < 14 else 4
        struct = random_tower(n, rng)
        assert ascending_series(struct).classification == JClass.NILPOTENT
        obstruction = closed_coframe_obstruction(struct)
        for p in range(1, struct.n):
            rep = find_pkahler(struct, p, budget)
            if rep.verdict != PKVerdict.INCONCLUSIVE:
                definitive += 1
                assert verify_report(struct, rep.to_json()) == [], (trial, p)
            if obstruction.forbidden_p == p:
                assert rep.verdict != PKVerdict.FOUND, (trial, p)
    assert definitive >= 40


def test_tower_census_n4_p2():
    """Draws 0-49 of one random_tower(4, Random(5)) stream at p = 2 with the
    default budget: every FOUND and REFUTED verifies after a JSON round
    trip.  Draws 43 and 44 end INCONCLUSIVE (ROADMAP item 5); the bound pins
    that count until they are decided."""
    rng = random.Random(5)
    inconclusive = []
    for draw in range(50):
        struct = random_tower(4, rng)
        rep = find_pkahler(struct, 2)
        if rep.verdict == PKVerdict.INCONCLUSIVE:
            inconclusive.append(draw)
            continue
        assert verify_report(struct, json.loads(json.dumps(rep.to_json()))) == [], draw
    assert len(inconclusive) <= 2, inconclusive
