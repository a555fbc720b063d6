"""Byte-identical model text for every stage model of a fixed roster.

``write_model`` is deterministic, so the sha256 of each kept ``<stage>.mps``
pins the exact model a builder emits and the exact text HiGHS reads: the
number printer, the names, the column order and the bounds. Each design also
checks that every text HiGHS reads is one of its pinned files. The roster is
the three desk instances and ``mesh_family(5, 0)`` under every option and
approach at gap 0; the mesh adds the rows the desk instances never build
(``pr2``, ``pairnode2`` and the shared-restoration
``brsy``/``brscont``/``brsban`` rows). Under ``none/integrated`` the pinned
``integrated-working`` is stage I's route-free relaxation over router pairs,
with one count of open lightpaths per pair, without the LSP pairs into a
demand's source or out of its destination and with its node cut-set rows:
its LSPs pack into their pairs' open slots and its shortest routes fit every
link here, so the full model is never solved after it. The stage-II models
(``protection-mpls`` and ``integrated-protection``) hold no variable, arc,
grooming row or route for a slot the working layer holds, and no row that
bars one. A refactor of the builders leaves every digest unchanged; a
deliberate change to a formulation or to the writer updates the pinned
values below and says why.

A later stage's model depends on the optimum HiGHS returned for the earlier
stages, so the pins belong to one solver build (scipy 1.17.1). After a solver
upgrade, regenerate them on an unchanged tree before judging a refactor.
"""

import hashlib

import pytest

from support import OPTIONS, desk, exact_config, highs_calls, mesh_family

from mplsotn.formulation import build_integrated_working
from mplsotn.milp import write_model
from mplsotn.model import Approach, DesignConfig, Survivability
from mplsotn.pipeline import (
    DecodeError,
    StageInfeasibleError,
    default_cost_model,
    run_design,
)

INSTANCES = {
    "ring4": lambda: desk("ring4"),
    "ring4-chord": lambda: desk("ring4-chord"),
    "ring5-chord": lambda: desk("ring5-chord"),
    "fam-5-s0": lambda: mesh_family(5, 0),
}

PINNED = {
    "fam-5-s0/brs/integrated": {
        "integrated-working":
            "6121fdeff847ca6406865df880fe117df6a2091ab522790876f77959067e6d8d",
        "integrated-protection":
            "a5adc69881a7302178827692138cce67a32f881bdef35835825965fd47c8c8a7",
    },
    "fam-5-s0/brs/sequential": {
        "working-mpls":
            "f8ffb37098e2801a8f74c9f0bdf769e79f3bc0d0be4bbf063f412aa527799b2c",
        "protection-mpls":
            "b4aa562c9d297bea0b6b57f1c66a297b5bce90e825962d7a6140e481804bfd54",
        "lightpath-routing":
            "893a612030a811f2eea5afd025b9704cf443c10043f820b87018a6509568f43d",
        "lightpath-protection":
            "5c983bf7794d47cb8e53e3a090fa93806fba46e6ce5e711b2058e7b6e8e612b6",
    },
    "fam-5-s0/double/integrated": {
        "integrated-working":
            "6121fdeff847ca6406865df880fe117df6a2091ab522790876f77959067e6d8d",
        "integrated-protection":
            "a98d911875705e0a39b40c0c500e52dfe847c02c759152ff4de617e350ec1bb1",
    },
    "fam-5-s0/double/sequential": {
        "working-mpls":
            "f8ffb37098e2801a8f74c9f0bdf769e79f3bc0d0be4bbf063f412aa527799b2c",
        "protection-mpls":
            "b4aa562c9d297bea0b6b57f1c66a297b5bce90e825962d7a6140e481804bfd54",
        "lightpath-routing":
            "588763721df0ebd95f0ce1e4b88494d9757d9e9becfa7cf7bfa164013a6a1a69",
        "lightpath-protection":
            "e404074118305b28e782a82cb6d4596cd921870c81baab6fe8b1660aaa551aea",
    },
    "fam-5-s0/none/integrated": {
        "integrated-working":
            "9f947b796f774cf72ea6445c55addf2c8ac73252353669feba7375ea7283b6d5",
    },
    "fam-5-s0/none/sequential": {
        "working-mpls":
            "f8ffb37098e2801a8f74c9f0bdf769e79f3bc0d0be4bbf063f412aa527799b2c",
        "lightpath-routing":
            "83b3411110949b7f25e3deafa5b3d1f469359873b95e18667b347535e69c5910",
    },
    "fam-5-s0/single/integrated": {
        "integrated-working":
            "6121fdeff847ca6406865df880fe117df6a2091ab522790876f77959067e6d8d",
        "integrated-protection":
            "2fba4b594b4f9183abfd46119783b1044f917f2dfe198b7838abc4672aecc9a5",
    },
    "fam-5-s0/single/sequential": {
        "working-mpls":
            "f8ffb37098e2801a8f74c9f0bdf769e79f3bc0d0be4bbf063f412aa527799b2c",
        "protection-mpls":
            "20e78e48ae4e9bf0a08f6a5b62f732c521d17112390047a29b077aaeef58d0b5",
    },
    "fam-5-s0/spare-unprotected/integrated": {
        "integrated-working":
            "6121fdeff847ca6406865df880fe117df6a2091ab522790876f77959067e6d8d",
        "integrated-protection":
            "0ed8dd7dc24a1293c83381867548dd999b16c6393a22bc25d4515530889df61f",
    },
    "fam-5-s0/spare-unprotected/sequential": {
        "working-mpls":
            "f8ffb37098e2801a8f74c9f0bdf769e79f3bc0d0be4bbf063f412aa527799b2c",
        "protection-mpls":
            "b4aa562c9d297bea0b6b57f1c66a297b5bce90e825962d7a6140e481804bfd54",
        "lightpath-routing":
            "893a612030a811f2eea5afd025b9704cf443c10043f820b87018a6509568f43d",
        "lightpath-protection":
            "65a123d3a2f42e3fa3f5b050db8479fc948fcbbd19cc236232a6df9df7f097d8",
    },
    "ring4-chord/brs/integrated": {
        "integrated-working":
            "2d4eefc813cb9619514a418dce6f5c84293a68142404d5dc3869f9e87cd954bf",
        "integrated-protection":
            "69fc2068f59ee614baca07f2f922896a60e9ba3c5c9f4639a8874fafe5a1c949",
    },
    "ring4-chord/brs/sequential": {
        "working-mpls":
            "fad9ced3f7353bcce6b54150a2802af68bbef54ffbb28736a5747f075331e838",
        "protection-mpls":
            "9f788579b9076393912190aa53325a3e0385e68262e1a865517b814a006f32be",
        "lightpath-routing":
            "57273a6e53795033b08a6eab826e8bfc88e6bd395350f7381fcd3ff1eef70d07",
        "lightpath-protection":
            "cc3abf338ba8eaa1bfe02a239bf39edadf9833933afe788e3391276824d5bb09",
    },
    "ring4-chord/double/integrated": {
        "integrated-working":
            "2d4eefc813cb9619514a418dce6f5c84293a68142404d5dc3869f9e87cd954bf",
        "integrated-protection":
            "c71ec8ab96bcdac66e637905cb93e9e0fc0393efeb91d1ff6ef6680fc10ebb20",
    },
    "ring4-chord/double/sequential": {
        "working-mpls":
            "fad9ced3f7353bcce6b54150a2802af68bbef54ffbb28736a5747f075331e838",
        "protection-mpls":
            "9f788579b9076393912190aa53325a3e0385e68262e1a865517b814a006f32be",
        "lightpath-routing":
            "57273a6e53795033b08a6eab826e8bfc88e6bd395350f7381fcd3ff1eef70d07",
        "lightpath-protection":
            "3cdf32717bc200e4b4ff3093590a91d50ad95ae7d6ac2da429a2407ea406aaad",
    },
    "ring4-chord/none/integrated": {
        "integrated-working":
            "4d515ff4e89b6e8e4d4a03621b2991518c1488202d15a0c1d4020bf02adfe4fc",
    },
    "ring4-chord/none/sequential": {
        "working-mpls":
            "fad9ced3f7353bcce6b54150a2802af68bbef54ffbb28736a5747f075331e838",
        "lightpath-routing":
            "57273a6e53795033b08a6eab826e8bfc88e6bd395350f7381fcd3ff1eef70d07",
    },
    "ring4-chord/single/integrated": {
        "integrated-working":
            "2d4eefc813cb9619514a418dce6f5c84293a68142404d5dc3869f9e87cd954bf",
        "integrated-protection":
            "bebf2f8cf8b7a9a472bfc9dbd3bd24c1dccad789856be3edc5027959dede07de",
    },
    "ring4-chord/single/sequential": {
        "working-mpls":
            "fad9ced3f7353bcce6b54150a2802af68bbef54ffbb28736a5747f075331e838",
        "protection-mpls":
            "ccc174944e55c813ac77ae4ac719653a8f95cb461a44fd40c31bdc298ffdb928",
        "lightpath-routing":
            "16412d515dc44f5dd3095abedad812627be663d44c2ec5d49476a2f4850fd722",
    },
    "ring4-chord/spare-unprotected/integrated": {
        "integrated-working":
            "2d4eefc813cb9619514a418dce6f5c84293a68142404d5dc3869f9e87cd954bf",
        "integrated-protection":
            "c71ec8ab96bcdac66e637905cb93e9e0fc0393efeb91d1ff6ef6680fc10ebb20",
    },
    "ring4-chord/spare-unprotected/sequential": {
        "working-mpls":
            "fad9ced3f7353bcce6b54150a2802af68bbef54ffbb28736a5747f075331e838",
        "protection-mpls":
            "9f788579b9076393912190aa53325a3e0385e68262e1a865517b814a006f32be",
        "lightpath-routing":
            "57273a6e53795033b08a6eab826e8bfc88e6bd395350f7381fcd3ff1eef70d07",
        "lightpath-protection":
            "3cdf32717bc200e4b4ff3093590a91d50ad95ae7d6ac2da429a2407ea406aaad",
    },
    "ring4/brs/integrated": {
        "integrated-working":
            "24ee5e25f4d3d18e4becaf3512d0632bf2feb27f799ca80aa7426251e2f8e894",
        "integrated-protection":
            "e945fa74069e2e3515897b595a655f47d18e043cd4ea26a6a60f811e048effc2",
    },
    "ring4/brs/sequential": {
        "working-mpls":
            "fad9ced3f7353bcce6b54150a2802af68bbef54ffbb28736a5747f075331e838",
        "protection-mpls":
            "9f788579b9076393912190aa53325a3e0385e68262e1a865517b814a006f32be",
        "lightpath-routing":
            "ada68fdfd86620fbcb943bdf16e78a3b37ddadeb7287e902ef93f29e91153fa9",
        "lightpath-protection":
            "6a97680bef44513cc8d8d9a8ac4d45af95fc1cedba78d00156050978e21c1e91",
    },
    "ring4/double/integrated": {
        "integrated-working":
            "24ee5e25f4d3d18e4becaf3512d0632bf2feb27f799ca80aa7426251e2f8e894",
        "integrated-protection":
            "8347056f86e9fe6f57a0b8029c563ca1a46fead18e3efb3e02b459d381385a6b",
    },
    "ring4/double/sequential": {
        "working-mpls":
            "fad9ced3f7353bcce6b54150a2802af68bbef54ffbb28736a5747f075331e838",
        "protection-mpls":
            "9f788579b9076393912190aa53325a3e0385e68262e1a865517b814a006f32be",
        "lightpath-routing":
            "ada68fdfd86620fbcb943bdf16e78a3b37ddadeb7287e902ef93f29e91153fa9",
        "lightpath-protection":
            "1016f3f8ed1c5d29ffb603ff68965236fab9020cecfdfcd186e0e75178bbfdfd",
    },
    "ring4/none/integrated": {
        "integrated-working":
            "5f22c4c18594758c87bdcc1d1fc0d49549c17da4e4f79fd34537a8967b6f5781",
    },
    "ring4/none/sequential": {
        "working-mpls":
            "fad9ced3f7353bcce6b54150a2802af68bbef54ffbb28736a5747f075331e838",
        "lightpath-routing":
            "ada68fdfd86620fbcb943bdf16e78a3b37ddadeb7287e902ef93f29e91153fa9",
    },
    "ring4/single/integrated": {
        "integrated-working":
            "24ee5e25f4d3d18e4becaf3512d0632bf2feb27f799ca80aa7426251e2f8e894",
        "integrated-protection":
            "cbe996df987c5680afd5a2c38e287a283f898c6b3e7583debcec191b00c83cac",
    },
    "ring4/single/sequential": {
        "working-mpls":
            "fad9ced3f7353bcce6b54150a2802af68bbef54ffbb28736a5747f075331e838",
        "protection-mpls":
            "ccc174944e55c813ac77ae4ac719653a8f95cb461a44fd40c31bdc298ffdb928",
        "lightpath-routing":
            "1dd0655fc6700f1ff95095b88e376d5b770233d6bb2e4555c6aaf74b1a3db5eb",
    },
    "ring4/spare-unprotected/integrated": {
        "integrated-working":
            "24ee5e25f4d3d18e4becaf3512d0632bf2feb27f799ca80aa7426251e2f8e894",
        "integrated-protection":
            "8347056f86e9fe6f57a0b8029c563ca1a46fead18e3efb3e02b459d381385a6b",
    },
    "ring4/spare-unprotected/sequential": {
        "working-mpls":
            "fad9ced3f7353bcce6b54150a2802af68bbef54ffbb28736a5747f075331e838",
        "protection-mpls":
            "9f788579b9076393912190aa53325a3e0385e68262e1a865517b814a006f32be",
        "lightpath-routing":
            "ada68fdfd86620fbcb943bdf16e78a3b37ddadeb7287e902ef93f29e91153fa9",
        "lightpath-protection":
            "1016f3f8ed1c5d29ffb603ff68965236fab9020cecfdfcd186e0e75178bbfdfd",
    },
    "ring5-chord/brs/integrated": {
        "integrated-working":
            "217a9473b739b932bba7df5d2ef7cc1fe956091363be576413236e77a0135bf4",
        "integrated-protection":
            "b3c9318c3bc66aba862f30da3176f068b41a17cd6222ab3564a1d26577fcffc7",
    },
    "ring5-chord/brs/sequential": {
        "working-mpls":
            "b006877e3f018e16a07fae7f1abbfabeedcc4822e0763081c25157ab6f4d3341",
        "protection-mpls":
            "9f788579b9076393912190aa53325a3e0385e68262e1a865517b814a006f32be",
        "lightpath-routing":
            "723ecd4af3e1609bff723ab4f35ca8ce32b0c8f094cf4ea4499ab9b956bb2f9a",
        "lightpath-protection":
            "37bc6f9b65024774162ea881984c6894d7ee8a7f130f973a5a34349403119edd",
    },
    "ring5-chord/double/integrated": {
        "integrated-working":
            "217a9473b739b932bba7df5d2ef7cc1fe956091363be576413236e77a0135bf4",
        "integrated-protection":
            "26378e432235b3f5c945521d26819062625b451c28f491686ea465b489fcecd2",
    },
    "ring5-chord/double/sequential": {
        "working-mpls":
            "b006877e3f018e16a07fae7f1abbfabeedcc4822e0763081c25157ab6f4d3341",
        "protection-mpls":
            "9f788579b9076393912190aa53325a3e0385e68262e1a865517b814a006f32be",
        "lightpath-routing":
            "723ecd4af3e1609bff723ab4f35ca8ce32b0c8f094cf4ea4499ab9b956bb2f9a",
        "lightpath-protection":
            "d533ada2435b2175c914c3ca07a71433acaba36d5807ec6a84b82d51c1088bdc",
    },
    "ring5-chord/none/integrated": {
        "integrated-working":
            "f3d94ff1c5223db40c668bf334d48f7e5c42eacd7f9763f6e3d675215a3d4c0d",
    },
    "ring5-chord/none/sequential": {
        "working-mpls":
            "b006877e3f018e16a07fae7f1abbfabeedcc4822e0763081c25157ab6f4d3341",
        "lightpath-routing":
            "723ecd4af3e1609bff723ab4f35ca8ce32b0c8f094cf4ea4499ab9b956bb2f9a",
    },
    "ring5-chord/single/integrated": {
        "integrated-working":
            "217a9473b739b932bba7df5d2ef7cc1fe956091363be576413236e77a0135bf4",
        "integrated-protection":
            "53afe7606b2b47d2019e2fe959b717fe9b8a69c55abcfd0d1c492522e640fe9a",
    },
    "ring5-chord/single/sequential": {
        "working-mpls":
            "b006877e3f018e16a07fae7f1abbfabeedcc4822e0763081c25157ab6f4d3341",
        "protection-mpls":
            "710e2aef5ecc8c26d6c5af139252300bedb009c115426dec1a07055a59cb3d33",
        "lightpath-routing":
            "31112d9d7e40157271e1d58470825bb72f2265ea890d4631d39f234c472b7092",
    },
    "ring5-chord/spare-unprotected/integrated": {
        "integrated-working":
            "217a9473b739b932bba7df5d2ef7cc1fe956091363be576413236e77a0135bf4",
        "integrated-protection":
            "26378e432235b3f5c945521d26819062625b451c28f491686ea465b489fcecd2",
    },
    "ring5-chord/spare-unprotected/sequential": {
        "working-mpls":
            "b006877e3f018e16a07fae7f1abbfabeedcc4822e0763081c25157ab6f4d3341",
        "protection-mpls":
            "9f788579b9076393912190aa53325a3e0385e68262e1a865517b814a006f32be",
        "lightpath-routing":
            "723ecd4af3e1609bff723ab4f35ca8ce32b0c8f094cf4ea4499ab9b956bb2f9a",
        "lightpath-protection":
            "d533ada2435b2175c914c3ca07a71433acaba36d5807ec6a84b82d51c1088bdc",
    },
}


def test_roster_is_complete():
    assert sorted(PINNED) == sorted(
        f"{name}/{opt.value}/{approach.value}"
        for name in INSTANCES for opt in OPTIONS for approach in Approach
    )


@pytest.mark.parametrize("key", sorted(PINNED))
def test_stage_lp_digests(key, tmp_path, monkeypatch):
    calls = highs_calls(monkeypatch)
    name, option, approach = key.split("/")
    cfg = exact_config(Survivability(option), Approach(approach))
    try:
        run_design(INSTANCES[name](), cfg, keep_artifacts_dir=tmp_path)
    except (StageInfeasibleError, DecodeError):
        pass  # the stages solved before the failure still kept their models
    digests = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.mps")}
    assert digests == PINNED[key]
    # every text HiGHS reads is pinned (a stage read twice keeps only its last)
    assert {hashlib.sha256(kwargs["mps"].encode()).hexdigest()
            for kwargs, _ in calls} <= {*digests.values()}


# With one slot per router pair the pair-level relaxation and the slot-level
# one are the same model, so these pins never move with the pair refactor.
SINGLE_SLOT_RELAXATION = {
    "fam-5-s0": "86ddbe39c973d9c4dd1a4933204f6a4bdadf606bf021976a9e27c60d8e32d803",
    "ring4": "f99063bd3aab57306bb53086058f28bf0f77692bd6036099b563209341ff641b",
}


@pytest.mark.parametrize("name", sorted(SINGLE_SLOT_RELAXATION))
def test_single_slot_relaxation_digest(name):
    inst = INSTANCES[name]()
    sm = build_integrated_working(inst, DesignConfig(q_max=1),
                                  default_cost_model(inst), relaxed=True)
    text = write_model(sm.model)
    assert hashlib.sha256(text.encode()).hexdigest() == SINGLE_SLOT_RELAXATION[name]


# ``transit_double_count`` keeps each protected LSP's arrival in stage II's
# objective. No roster key above sets it, so these pin that branch of the
# stage-II model, sequential and integrated.
DOUBLE_COUNT = {
    "fam-5-s0/spare-unprotected/integrated": ("integrated-protection",
        "667fb589d69cb43d528ddd209b55f7420bf7764c8166500bd43d9287c76336a8"),
    "fam-5-s0/spare-unprotected/sequential": ("protection-mpls",
        "843115b82932595ee08d8aa2fa81853cd47339d99575b4bc793f9e08c38501d2"),
    "ring4/single/integrated": ("integrated-protection",
        "9e03b9e978b7fae99be81b5dea32e42cb5b359b611e6df7bb06a7441215cf9aa"),
    "ring4/single/sequential": ("protection-mpls",
        "22da447af0a054d3091324feb6f713c6ca2d4c57175ff59adf882383b619d7f4"),
}


@pytest.mark.parametrize("key", sorted(DOUBLE_COUNT))
def test_double_counted_transit_stage_two_digest(key, tmp_path):
    name, option, approach = key.split("/")
    cfg = exact_config(Survivability(option), Approach(approach),
                       transit_double_count=True)
    run_design(INSTANCES[name](), cfg, keep_artifacts_dir=tmp_path)
    stage, digest = DOUBLE_COUNT[key]
    text = (tmp_path / f"{stage}.mps").read_bytes()
    assert hashlib.sha256(text).hexdigest() == digest
