"""Every derived relation that skips a term when a factor of it is
empty, against its full formula written out here, over every candidate of
the corpus and of the fuzz programs of seeds 7 and 11. Each rule is also
seen to take both branches, the short cut and the full evaluation."""

import random
from collections import Counter

import pytest

from immlab.enumeration import candidate_executions
from immlab.fuzz import FuzzConfig, random_program
from immlab.hwmodels import (
    arm_relations, power_ppo_fixpoint, split_release, to_arm, to_power,
)
from immlab.program import parse_litmus
from immlab.relalg import Rel

from conftest import CORPUS_DIR
from oracles import power_fixpoint_oracle


def imm_formulas(g):
    """sw, sw_rc11, hb, hb_rc11, psc, eco and ppo of an imm graph, in full."""
    po, po_loc, rf, co, rmw = g.po, g.po_loc, g.rf, g.co, g.rmw
    idw = g.ident(g.W)
    rfi, rfe = rf & po, rf - po
    fr = rf.inverse().compose(co)
    eco = rf | co.compose(rf.opt()) | fr.compose(rf.opt())
    release = g.ident(g.W_rel) | g.ident(g.fences_geq("rel")).compose(po)
    acquire = g.ident(g.R_acq) | po.compose(g.ident(g.fences_geq("acq")))
    rs = idw.seq(po_loc, idw) | idw.compose(po_loc.opt().seq(rf, rmw).star())
    rs_rc11 = idw.seq(po_loc.opt(), idw).compose(rf.compose(rmw).star())
    sw = release.seq(rs, rfi | po_loc.opt().compose(rfe), acquire)
    sw_rc11 = release.seq(rs_rc11, rf, acquire)
    hb = (po | sw).plus()
    deps = (g.data | g.ctrl | g.addr.compose(po.opt()) | g.casdep
            | g.ident(g.R_ex).compose(po))
    fsc = g.ident(g.F_sc)
    return {
        "sw": sw, "sw_rc11": sw_rc11, "hb": hb, "hb_rc11": (po | sw_rc11).plus(),
        "psc": fsc.seq(hb, eco, hb, fsc), "eco": eco,
        "ppo": g.ident(g.R).seq((deps | rfi).plus(), idw),
    }


def power_formulas(gp, armv7):
    """ii, ic, ci, cc, ppo, prop1 and prop2 of a POWER graph, in full, with
    the dependency order from the rule-at-a-time oracle."""
    po, rf, co = gp.po, gp.rf, gp.co
    rfi, rfe, coe = rf & po, rf - po, co - po
    fre = rf.inverse().compose(co) - po
    seeds = {
        "addr": gp.addr.pairs, "data": gp.data.pairs,
        "rdw": (fre.compose(rfe) & po).pairs, "rfi": rfi.pairs,
        "ctrl_isync": gp.ident(gp.R).seq(
            gp.ctrl, gp.ident(gp.fences_with_mode("isync")), po).pairs,
        "detour": (coe.compose(rfe) & po).pairs, "ctrl": gp.ctrl.pairs,
        "addr_po_opt": gp.addr.compose(po.opt()).pairs, "po_loc": gp.po_loc.pairs,
    }
    ii, ic, ci, cc = (Rel(gp.n, pairs) for pairs in power_fixpoint_oracle(seeds, armv7=armv7))
    idr, idw, idrw = gp.ident(gp.R), gp.ident(gp.W), gp.ident(gp.RW)

    def fence_order(mode):
        return idrw.seq(po, gp.ident(gp.fences_with_mode(mode)), po, idrw)

    sync, lwsync = fence_order("sync"), fence_order("lwsync")
    fence = sync | (lwsync - lwsync.restrict(gp.W, gp.R))
    ppo = idr.seq(ii, idr) | idr.seq(ic, idw)
    hb_star = (ppo | fence | rfe).star()
    return {
        "ii": ii, "ic": ic, "ci": ci, "cc": cc, "ppo": ppo,
        "prop1": idw.seq(rfe.opt(), fence, hb_star, idw),
        "prop2": (coe | fre).opt().seq(rfe.opt(), fence.compose(hb_star).opt(), sync,
                                       hb_star),
    }


def arm_formulas(ga):
    """dob and bob of an ARM graph, in full."""
    po, rf, co = ga.po, ga.rf, ga.co
    rfi, coi = rf & po, co & po
    idw = ga.ident(ga.W)

    def with_mode(members, mode):
        return ga.ident(i for i in members if ga.labels[i].mode == mode)

    return {
        "dob": ((ga.addr | ga.data).compose(rfi.opt())
                | (ga.ctrl | ga.data).seq(idw, coi.opt()) | ga.addr.seq(po, idw)),
        "bob": (po.seq(ga.ident(ga.fences_with_mode("sy")), po)
                | ga.ident(ga.R).seq(po, ga.ident(ga.fences_with_mode("ld")), po)
                | with_mode(ga.R, "Q").compose(po)
                | po.compose(with_mode(ga.W, "L")).compose(coi.opt())),
    }


def branches(g, gp):
    """Per rule, whether the factor it branches on is empty for these graphs
    (the short cut is taken)."""
    d, p = g.derive(), power_ppo_fixpoint(gp)
    return {
        "sw bracket": not d.sw_release or not d.sw_acquire,
        "hb sw": not d.sw,
        "hb_rc11 sw_rc11": not d.sw_rc11,
        "prop1 fence": not p.fence,
        "prop2 sync": not p.sync,
    }


def candidates(source):
    if source == "corpus":
        programs = [parse_litmus(p.read_bytes(), str(p)).program
                    for p in sorted(CORPUS_DIR.glob("*.litmus"))]
    else:
        rng, cfg = random.Random(source), FuzzConfig()
        programs = [random_program(rng, cfg) for _ in range(50)]
    for program in programs:
        for cand in candidate_executions(program, max_candidates=400):
            yield cand.execution


@pytest.mark.parametrize("source", ["corpus", 7, 11])
def test_short_circuited_entries_equal_their_full_formulas(source):
    taken = Counter()
    checked = 0
    for g in candidates(source):
        d = g.derive()
        for name, full in imm_formulas(g).items():
            assert getattr(d, name) == full, name
        gp, ga = to_power(split_release(g)), to_arm(g)
        for armv7 in (False, True):
            rels = power_ppo_fixpoint(gp, armv7=armv7)
            for name, full in power_formulas(gp, armv7).items():
                assert getattr(rels, name) == full, (name, armv7)
        arm = arm_relations(ga)
        for name, full in arm_formulas(ga).items():
            assert getattr(arm, name) == full, name
        for rule, short in branches(g, gp).items():
            taken[rule, short] += 1
        checked += 1
    assert checked > 200
    if source != "corpus":
        # both branches of every rule run on the fuzz candidates
        for rule in {rule for rule, _ in taken}:
            assert taken[rule, True] and taken[rule, False], rule
