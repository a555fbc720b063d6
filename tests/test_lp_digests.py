"""Byte-identical LP text for every stage model of a fixed roster.

``write_model`` is deterministic, so the sha256 of each kept ``<stage>.lp``
pins the exact model a builder emits. The roster is the three desk instances
and ``mesh_family(5, 0)`` under every option and approach at gap 0; the mesh
adds the rows the desk instances never build (``pr2``, ``pairnode2`` and the
shared-restoration ``brsy``/``brscont``/``brsban`` rows). Under
``none/integrated`` the pinned ``integrated-working`` is stage I's route-free
relaxation over router pairs, with one count of open lightpaths per pair,
without the LSP pairs into a demand's source or out of its destination and
with its node cut-set rows: its LSPs pack into their pairs' open slots and
its shortest routes fit every link here, so the full model is never solved
after it. The stage-II models (``protection-mpls`` and
``integrated-protection``) hold no variable, arc, grooming row or route for
a slot the working layer holds, and no row that bars one. A refactor of the
builders leaves every digest unchanged; a deliberate change to a
formulation updates the pinned values below and says why. ``ROSTER_MPS`` pins in one digest the MPS text of every model the
roster hands HiGHS, so it also moves with a change to the MPS writer.

A later stage's model depends on the optimum HiGHS returned for the earlier
stages, so the pins belong to one solver build (scipy 1.17.1). After a solver
upgrade, regenerate them on an unchanged tree before judging a refactor.
"""

import hashlib

import pytest

from support import OPTIONS, desk, exact_config, mesh_family

from mplsotn import solvers
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
            "0e577a0d3108dcedf366c1dbf22b6ec5e96293c840dfcf72fa5c07e774b8fd80",
        "integrated-protection":
            "4c9b9ceb2b68e0a4b1d41e2be2aeb8238b97f4446f4e97fcda5e521aacfbebf4",
    },
    "fam-5-s0/brs/sequential": {
        "working-mpls":
            "20a6bb0a2093510a5d30730a2e768b9bae3421f198575b100abc71d4ce413ced",
        "protection-mpls":
            "d9c3cfa36e6fec141941760c26a1abe516dc334a2a819a81f32ae6c2b7aef741",
        "lightpath-routing":
            "de054d1ce5f3eb23505fc769274663c8a18136efae2673420e84c6deb0b47430",
        "lightpath-protection":
            "809a1626956c143015f7cd1f0c713c03e2bd9c6674ca50ee2220877b15d58649",
    },
    "fam-5-s0/double/integrated": {
        "integrated-working":
            "0e577a0d3108dcedf366c1dbf22b6ec5e96293c840dfcf72fa5c07e774b8fd80",
        "integrated-protection":
            "4f0c70ea584f36969de151c2283887332f50494c6f2a7d31ac5bcf55dfd722bc",
    },
    "fam-5-s0/double/sequential": {
        "working-mpls":
            "20a6bb0a2093510a5d30730a2e768b9bae3421f198575b100abc71d4ce413ced",
        "protection-mpls":
            "d9c3cfa36e6fec141941760c26a1abe516dc334a2a819a81f32ae6c2b7aef741",
        "lightpath-routing":
            "6028788eed22554a908605f999bd7deb47af153c84ed8b43a0d930c6cf9a7a60",
        "lightpath-protection":
            "159491ac15f0cad079950ac8405722d0e3b3a5d2f6fc2e3255faa47c45742f78",
    },
    "fam-5-s0/none/integrated": {
        "integrated-working":
            "3364118788fdbe018a064ad69a76a5be1404aabfadd346b85ce04d6451c48ac1",
    },
    "fam-5-s0/none/sequential": {
        "working-mpls":
            "20a6bb0a2093510a5d30730a2e768b9bae3421f198575b100abc71d4ce413ced",
        "lightpath-routing":
            "503c5100433ad78b5d20c73e539259788a914e596c9bb5238e093f85bc5eb99a",
    },
    "fam-5-s0/single/integrated": {
        "integrated-working":
            "0e577a0d3108dcedf366c1dbf22b6ec5e96293c840dfcf72fa5c07e774b8fd80",
        "integrated-protection":
            "2e571b786eba8c20a73caa76b11cda7b978c6fc9fd58582d2b27a24735e6fb59",
    },
    "fam-5-s0/single/sequential": {
        "working-mpls":
            "20a6bb0a2093510a5d30730a2e768b9bae3421f198575b100abc71d4ce413ced",
        "protection-mpls":
            "c85d65f930de24099bc0811df3474c215ec6eacbb2ca32e50afcdd6aa631c43f",
    },
    "fam-5-s0/spare-unprotected/integrated": {
        "integrated-working":
            "0e577a0d3108dcedf366c1dbf22b6ec5e96293c840dfcf72fa5c07e774b8fd80",
        "integrated-protection":
            "122ed85263736829c6cccfc358568deed6045bafc29f5621d48b13bf6b4d65ef",
    },
    "fam-5-s0/spare-unprotected/sequential": {
        "working-mpls":
            "20a6bb0a2093510a5d30730a2e768b9bae3421f198575b100abc71d4ce413ced",
        "protection-mpls":
            "d9c3cfa36e6fec141941760c26a1abe516dc334a2a819a81f32ae6c2b7aef741",
        "lightpath-routing":
            "de054d1ce5f3eb23505fc769274663c8a18136efae2673420e84c6deb0b47430",
        "lightpath-protection":
            "29f367c17d43a6e27f963add5d0b89a8892661dc07842ac8cb3afde3c3dcb7cc",
    },
    "ring4-chord/brs/integrated": {
        "integrated-working":
            "51e0520255f5f14f95d4bfd8e55b78035a81ddc8254912550c6cbad28f16c151",
        "integrated-protection":
            "c40e8dc7b4319173021d6bee53638ba753cb81cb7431246719d99e3e660f201d",
    },
    "ring4-chord/brs/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "e05cbd79b288fc64e279a2da53c40ac85b791b468b4663bc851751e28495eb0c",
        "lightpath-protection":
            "04ecac3328427063d128a050022128b8a13e2daeecb5b079fd113a68129d047f",
    },
    "ring4-chord/double/integrated": {
        "integrated-working":
            "51e0520255f5f14f95d4bfd8e55b78035a81ddc8254912550c6cbad28f16c151",
        "integrated-protection":
            "0b3e8f5e2e7db533e4b497648c5c30f01555f44a48b01e8912019a50b409c98c",
    },
    "ring4-chord/double/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "e05cbd79b288fc64e279a2da53c40ac85b791b468b4663bc851751e28495eb0c",
        "lightpath-protection":
            "23dd240ec032ba3bcbaf5b8525e4af3ff2be6429b2c4ff4367d15fecfdd4c6f9",
    },
    "ring4-chord/none/integrated": {
        "integrated-working":
            "c395e55de44ae60d22a72e652d9f237c290f3d3c95c04aeafa25e63addd565b8",
    },
    "ring4-chord/none/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "lightpath-routing":
            "e05cbd79b288fc64e279a2da53c40ac85b791b468b4663bc851751e28495eb0c",
    },
    "ring4-chord/single/integrated": {
        "integrated-working":
            "51e0520255f5f14f95d4bfd8e55b78035a81ddc8254912550c6cbad28f16c151",
        "integrated-protection":
            "8a35a8c3b37d758031743451a74df0fe95abba86a1a4aaff1c284b972831dd0c",
    },
    "ring4-chord/single/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "fd66040ffdaee69d4d59d9d61ee0a3c0ec710a76cc2ff1ee947722e4dd9d618f",
        "lightpath-routing":
            "e6162438b3decaeeb0a1bd6777f8d58ee52eacbcf22e6040b92ad33bd3738ca5",
    },
    "ring4-chord/spare-unprotected/integrated": {
        "integrated-working":
            "51e0520255f5f14f95d4bfd8e55b78035a81ddc8254912550c6cbad28f16c151",
        "integrated-protection":
            "0b3e8f5e2e7db533e4b497648c5c30f01555f44a48b01e8912019a50b409c98c",
    },
    "ring4-chord/spare-unprotected/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "e05cbd79b288fc64e279a2da53c40ac85b791b468b4663bc851751e28495eb0c",
        "lightpath-protection":
            "23dd240ec032ba3bcbaf5b8525e4af3ff2be6429b2c4ff4367d15fecfdd4c6f9",
    },
    "ring4/brs/integrated": {
        "integrated-working":
            "106f4abaf7bb5d03db295cbcb032fe79a6bb0253bcda52658be8624928ce28f5",
        "integrated-protection":
            "b2c7cfe4a5b898ac5da9d0773964de45c452d4bcb7a367e0642c04e120143a0d",
    },
    "ring4/brs/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "a383a26fdd81a3386e16ae25ca7708058cd39b3634f3dc9d2d2727eb0da5408d",
        "lightpath-protection":
            "8cd8725a840fcc33132ab4992cb62bf00fca9019d0de56eebe06f196236098d1",
    },
    "ring4/double/integrated": {
        "integrated-working":
            "106f4abaf7bb5d03db295cbcb032fe79a6bb0253bcda52658be8624928ce28f5",
        "integrated-protection":
            "ba7117d04e9592463bb623fc820b899c779c10040e8879bd63afb7125f6dcc1b",
    },
    "ring4/double/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "a383a26fdd81a3386e16ae25ca7708058cd39b3634f3dc9d2d2727eb0da5408d",
        "lightpath-protection":
            "bcc78453d8103c4fb481a2069cc5b7a20264cbe32f97452b5146c43aac8dd6ec",
    },
    "ring4/none/integrated": {
        "integrated-working":
            "a33ca9a21824e14f79c79fbdd0730c5f96574628d8a78e00ea0877825d956269",
    },
    "ring4/none/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "lightpath-routing":
            "a383a26fdd81a3386e16ae25ca7708058cd39b3634f3dc9d2d2727eb0da5408d",
    },
    "ring4/single/integrated": {
        "integrated-working":
            "106f4abaf7bb5d03db295cbcb032fe79a6bb0253bcda52658be8624928ce28f5",
        "integrated-protection":
            "348a98416ec6697e9bfc3b531c958dbb3a9946ae2d1ce8186f9f1c42965e6749",
    },
    "ring4/single/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "fd66040ffdaee69d4d59d9d61ee0a3c0ec710a76cc2ff1ee947722e4dd9d618f",
        "lightpath-routing":
            "b13f1310bdead27cff0ebb4222cd575fc3da05749062238f4aee0ece7d8a6f86",
    },
    "ring4/spare-unprotected/integrated": {
        "integrated-working":
            "106f4abaf7bb5d03db295cbcb032fe79a6bb0253bcda52658be8624928ce28f5",
        "integrated-protection":
            "ba7117d04e9592463bb623fc820b899c779c10040e8879bd63afb7125f6dcc1b",
    },
    "ring4/spare-unprotected/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "a383a26fdd81a3386e16ae25ca7708058cd39b3634f3dc9d2d2727eb0da5408d",
        "lightpath-protection":
            "bcc78453d8103c4fb481a2069cc5b7a20264cbe32f97452b5146c43aac8dd6ec",
    },
    "ring5-chord/brs/integrated": {
        "integrated-working":
            "a4d1f483436180d32defc113e7c9fb85963ed7473c0acf9f993692268eabd68c",
        "integrated-protection":
            "42e720232ef80aec4acb8b53e5a7340ce9089f15a5467bbc86683706941c04b6",
    },
    "ring5-chord/brs/sequential": {
        "working-mpls":
            "4334f3bc12f5ab8f717758b5cb4f6b5a73c5623507e7f85826c38fac960805bc",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "21fcf73850cb2d44e0f40b73c333db501aa2825b2a6121008a4afc4f8729b69b",
        "lightpath-protection":
            "5fca09a0f669bd50bfe2de52a0cfce5a187bce19e63f32e9616af85101572ecc",
    },
    "ring5-chord/double/integrated": {
        "integrated-working":
            "a4d1f483436180d32defc113e7c9fb85963ed7473c0acf9f993692268eabd68c",
        "integrated-protection":
            "ac02aed4abf76d4ee6ad615f37f560afc3f4f0442d1cdd46359f578042b67538",
    },
    "ring5-chord/double/sequential": {
        "working-mpls":
            "4334f3bc12f5ab8f717758b5cb4f6b5a73c5623507e7f85826c38fac960805bc",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "21fcf73850cb2d44e0f40b73c333db501aa2825b2a6121008a4afc4f8729b69b",
        "lightpath-protection":
            "d9f6cfaea04892868ed642aec3ae0ea62955d03136ca71f31db818977bc96954",
    },
    "ring5-chord/none/integrated": {
        "integrated-working":
            "e480d74690b8e6387ba8d5e3aeb6339136a1bb8a51b61b060f16c778c8e3696a",
    },
    "ring5-chord/none/sequential": {
        "working-mpls":
            "4334f3bc12f5ab8f717758b5cb4f6b5a73c5623507e7f85826c38fac960805bc",
        "lightpath-routing":
            "21fcf73850cb2d44e0f40b73c333db501aa2825b2a6121008a4afc4f8729b69b",
    },
    "ring5-chord/single/integrated": {
        "integrated-working":
            "a4d1f483436180d32defc113e7c9fb85963ed7473c0acf9f993692268eabd68c",
        "integrated-protection":
            "6a934c7166c738faed42b103530306c9634f202920eee3fcc0101ee831ba88e8",
    },
    "ring5-chord/single/sequential": {
        "working-mpls":
            "4334f3bc12f5ab8f717758b5cb4f6b5a73c5623507e7f85826c38fac960805bc",
        "protection-mpls":
            "5758b26f0dc1e3e183c9f819708f24096cc6f5c5e5a8959060d8661fa79f76f2",
        "lightpath-routing":
            "f94e42f915f236a05d514bd7d0d87ea98db55410118536cf2e732cefdf1a719d",
    },
    "ring5-chord/spare-unprotected/integrated": {
        "integrated-working":
            "a4d1f483436180d32defc113e7c9fb85963ed7473c0acf9f993692268eabd68c",
        "integrated-protection":
            "ac02aed4abf76d4ee6ad615f37f560afc3f4f0442d1cdd46359f578042b67538",
    },
    "ring5-chord/spare-unprotected/sequential": {
        "working-mpls":
            "4334f3bc12f5ab8f717758b5cb4f6b5a73c5623507e7f85826c38fac960805bc",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "21fcf73850cb2d44e0f40b73c333db501aa2825b2a6121008a4afc4f8729b69b",
        "lightpath-protection":
            "d9f6cfaea04892868ed642aec3ae0ea62955d03136ca71f31db818977bc96954",
    },
}


def test_roster_is_complete():
    assert sorted(PINNED) == sorted(
        f"{name}/{opt.value}/{approach.value}"
        for name in INSTANCES for opt in OPTIONS for approach in Approach
    )


@pytest.mark.parametrize("key", sorted(PINNED))
def test_stage_lp_digests(key, tmp_path):
    name, option, approach = key.split("/")
    cfg = exact_config(Survivability(option), Approach(approach))
    try:
        run_design(INSTANCES[name](), cfg, keep_artifacts_dir=tmp_path)
    except (StageInfeasibleError, DecodeError):
        pass  # the stages solved before the failure still kept their models
    digests = {
        p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.glob("*.lp")
    }
    assert digests == PINNED[key]


# Every MPS text HiGHS reads, in roster order and in solve order within a
# design: the LP pins cover what the builders emit, this one every byte
# that reaches HiGHS (the number printer, the column order, the bounds).
ROSTER_MPS = (
    "4a73cced759f2bc7334ce8ea3e969d514c9c3afd6c14dcdf3ebf2956d68709cc")


def test_roster_mps_digest(monkeypatch):
    digest = hashlib.sha256()
    scipy_milp = solvers.scipy_milp

    def recording(**kwargs):
        digest.update(kwargs["mps"].encode())
        return scipy_milp(**kwargs)

    monkeypatch.setattr(solvers, "scipy_milp", recording)
    for key in sorted(PINNED):
        name, option, approach = key.split("/")
        try:
            run_design(INSTANCES[name](),
                       exact_config(Survivability(option), Approach(approach)))
        except (StageInfeasibleError, DecodeError):
            pass
    assert digest.hexdigest() == ROSTER_MPS


# With one slot per router pair the pair-level relaxation and the slot-level
# one are the same model, so these pins never move with the pair refactor.
SINGLE_SLOT_RELAXATION = {
    "ring4": "0fcc45c743aa2e20c3c972166e55b9e0e14800425f6bac9d7a9c399441fd0f28",
    "fam-5-s0": "e0bdcf58349ec7b937cd2dc3c91bf8eb8d022d4230cd137319c9a25bd62fe0c9",
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
    "fam-5-s0/spare-unprotected/integrated": (
        "integrated-protection",
        "164a167965d2359a87587a0fffa81fd9f5164235d1955b4afddf82fd1b9c075d"),
    "fam-5-s0/spare-unprotected/sequential": (
        "protection-mpls",
        "eb288d0f0197abf4e99492adfbd14cb4f261e7c1a30adc2ca02cf36bba8b09c9"),
    "ring4/single/integrated": (
        "integrated-protection",
        "35380a70f761cc74e1d8f4ad7569317d169ba247e8609f221cff606eec2dcc07"),
    "ring4/single/sequential": (
        "protection-mpls",
        "2681a798eae161c883c95d1688c76ccbc81bb89569b62d56744905e0d207cafc"),
}


@pytest.mark.parametrize("key", sorted(DOUBLE_COUNT))
def test_double_counted_transit_stage_two_digest(key, tmp_path):
    name, option, approach = key.split("/")
    cfg = exact_config(Survivability(option), Approach(approach),
                       transit_double_count=True)
    run_design(INSTANCES[name](), cfg, keep_artifacts_dir=tmp_path)
    stage, digest = DOUBLE_COUNT[key]
    text = (tmp_path / f"{stage}.lp").read_bytes()
    assert hashlib.sha256(text).hexdigest() == digest
