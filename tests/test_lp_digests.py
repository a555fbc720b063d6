"""Byte-identical LP text for every stage model of a fixed roster.

``write_model`` is deterministic, so the sha256 of each kept ``<stage>.lp``
pins the exact model a builder emits. The roster is the three desk instances
and ``mesh_family(5, 0)`` under every option and approach at gap 0; the mesh
adds the rows the desk instances never build (``pr2``, ``pairnode2`` and the
shared-restoration ``brsy``/``brscont``/``brsban`` rows). Under
``none/integrated`` the pinned ``integrated-working`` is stage I's route-free
relaxation, without the LSP slots into a demand's source or out of its
destination: its shortest routes fit every link here, so the full model is
never solved after it. A refactor of the builders leaves every digest
unchanged; a deliberate change to a formulation updates the pinned values
below and says why.

A later stage's model depends on the optimum HiGHS returned for the earlier
stages, so the pins belong to one solver build (scipy 1.17.1). After a solver
upgrade, regenerate them on an unchanged tree before judging a refactor.
"""

import hashlib

import pytest

from support import OPTIONS, desk, exact_config, mesh_family

from mplsotn.model import Approach, Survivability
from mplsotn.pipeline import DecodeError, StageInfeasibleError, run_design
from mplsotn.solvers import SolverConfig

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
            "bdfed3a554902ebf8822f4335e84dce2a847cdf37c7077ca3a80948d6b644b9c",
    },
    "fam-5-s0/brs/sequential": {
        "working-mpls":
            "20a6bb0a2093510a5d30730a2e768b9bae3421f198575b100abc71d4ce413ced",
        "protection-mpls":
            "a3139d7e6bbdcd4564bded64dc749c72245908e3b9f2846ede80b16330673806",
        "lightpath-routing":
            "de054d1ce5f3eb23505fc769274663c8a18136efae2673420e84c6deb0b47430",
        "lightpath-protection":
            "2a9775b5ccbc59a3b410f596724c3d51e8c45ade6a111423e554191882b32ac8",
    },
    "fam-5-s0/double/integrated": {
        "integrated-working":
            "0e577a0d3108dcedf366c1dbf22b6ec5e96293c840dfcf72fa5c07e774b8fd80",
        "integrated-protection":
            "9df74b29d64fa9cb16746f84b20f0c829f9d8f7fbd8d634c2fa3063feeb3815b",
    },
    "fam-5-s0/double/sequential": {
        "working-mpls":
            "20a6bb0a2093510a5d30730a2e768b9bae3421f198575b100abc71d4ce413ced",
        "protection-mpls":
            "a3139d7e6bbdcd4564bded64dc749c72245908e3b9f2846ede80b16330673806",
        "lightpath-routing":
            "6028788eed22554a908605f999bd7deb47af153c84ed8b43a0d930c6cf9a7a60",
        "lightpath-protection":
            "ea976e762beeb730e59a10e6e3131e36e2857e9d67fa64a8c8df1bc70192d40a",
    },
    "fam-5-s0/none/integrated": {
        "integrated-working":
            "f6cbbc5f462d06eacf30d4db3bfa3d5c6ac9f1da03de1066f4823a02bbf7a1fd",
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
            "0bd16b0f7f3d03acb9b486f3c8c1e9b8628fb52d438d2c8762ad9e7ebdc91d8c",
    },
    "fam-5-s0/single/sequential": {
        "working-mpls":
            "20a6bb0a2093510a5d30730a2e768b9bae3421f198575b100abc71d4ce413ced",
        "protection-mpls":
            "2c3e3b056e5c6b9eb3d714ef46d72755fdaa31d6353b2c682266315b81486563",
    },
    "fam-5-s0/spare-unprotected/integrated": {
        "integrated-working":
            "0e577a0d3108dcedf366c1dbf22b6ec5e96293c840dfcf72fa5c07e774b8fd80",
        "integrated-protection":
            "c55b522d1806ac675a838da1a977a46f5a7285c8d52761d6ca5c0a729b3f4783",
    },
    "fam-5-s0/spare-unprotected/sequential": {
        "working-mpls":
            "20a6bb0a2093510a5d30730a2e768b9bae3421f198575b100abc71d4ce413ced",
        "protection-mpls":
            "a3139d7e6bbdcd4564bded64dc749c72245908e3b9f2846ede80b16330673806",
        "lightpath-routing":
            "de054d1ce5f3eb23505fc769274663c8a18136efae2673420e84c6deb0b47430",
        "lightpath-protection":
            "188ae55b9ba64e609daba0961fae36725bb01ab802c64e1e1b34e8d5c4d76aa4",
    },
    "ring4-chord/brs/integrated": {
        "integrated-working":
            "51e0520255f5f14f95d4bfd8e55b78035a81ddc8254912550c6cbad28f16c151",
        "integrated-protection":
            "09835c8464063673815064a3d862acaf781a321a1c2668cb30fecf8184c5b3cd",
    },
    "ring4-chord/brs/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "e05cbd79b288fc64e279a2da53c40ac85b791b468b4663bc851751e28495eb0c",
        "lightpath-protection":
            "0ee83156a2508166b153f6b10cef5b93ff258e0b6bbf78359ae1649f3b6b1174",
    },
    "ring4-chord/double/integrated": {
        "integrated-working":
            "51e0520255f5f14f95d4bfd8e55b78035a81ddc8254912550c6cbad28f16c151",
        "integrated-protection":
            "6da4510a89488e4a8b5bd1c465d83e1514deb9d0022486f6aa408f5a49d92d97",
    },
    "ring4-chord/double/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "e05cbd79b288fc64e279a2da53c40ac85b791b468b4663bc851751e28495eb0c",
        "lightpath-protection":
            "bb195487966f527e6309fbea11eff140b8b079e407287f7e3ab4918c785c92d4",
    },
    "ring4-chord/none/integrated": {
        "integrated-working":
            "a6b4c9d54b8ad4bfdd5cb034da96716014d7f01093de635f23372d9f63d26bbf",
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
            "273727a43607417734ffc2c6fdb3c6f19a71770d45fa34a6890b7e4cc3b8ea19",
    },
    "ring4-chord/single/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "013bcb131ff73cc88ab90b3b1190e60f09c03dade052887d058d85363bf19cd9",
        "lightpath-routing":
            "e6162438b3decaeeb0a1bd6777f8d58ee52eacbcf22e6040b92ad33bd3738ca5",
    },
    "ring4-chord/spare-unprotected/integrated": {
        "integrated-working":
            "51e0520255f5f14f95d4bfd8e55b78035a81ddc8254912550c6cbad28f16c151",
        "integrated-protection":
            "6da4510a89488e4a8b5bd1c465d83e1514deb9d0022486f6aa408f5a49d92d97",
    },
    "ring4-chord/spare-unprotected/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "e05cbd79b288fc64e279a2da53c40ac85b791b468b4663bc851751e28495eb0c",
        "lightpath-protection":
            "bb195487966f527e6309fbea11eff140b8b079e407287f7e3ab4918c785c92d4",
    },
    "ring4/brs/integrated": {
        "integrated-working":
            "106f4abaf7bb5d03db295cbcb032fe79a6bb0253bcda52658be8624928ce28f5",
        "integrated-protection":
            "9cf73f9b15e38b410f4cdb51c8e6b776de4d8148b9de53c26150b93ecd2bd7f7",
    },
    "ring4/brs/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "a383a26fdd81a3386e16ae25ca7708058cd39b3634f3dc9d2d2727eb0da5408d",
        "lightpath-protection":
            "a4f9b370d8f594c0907c149d47103645815a93b495047086e198b45fe715e64d",
    },
    "ring4/double/integrated": {
        "integrated-working":
            "106f4abaf7bb5d03db295cbcb032fe79a6bb0253bcda52658be8624928ce28f5",
        "integrated-protection":
            "1bfaa9a51f91abfe52c20c1e6917e8bf3313625860274684a58ba4afec42978e",
    },
    "ring4/double/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "a383a26fdd81a3386e16ae25ca7708058cd39b3634f3dc9d2d2727eb0da5408d",
        "lightpath-protection":
            "504cd31369a883eb3604cf80beaa655448b5b29378e15c90894dc980c84f4823",
    },
    "ring4/none/integrated": {
        "integrated-working":
            "2ffea5c41d41f76f489ba822ef200f2ea73a92c012ad377542f49352f962e61d",
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
            "aca3cd0287da6a738f18b24e0a5dab6ef876374113e92e7cb0ac8bf486403e02",
    },
    "ring4/single/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "013bcb131ff73cc88ab90b3b1190e60f09c03dade052887d058d85363bf19cd9",
        "lightpath-routing":
            "b13f1310bdead27cff0ebb4222cd575fc3da05749062238f4aee0ece7d8a6f86",
    },
    "ring4/spare-unprotected/integrated": {
        "integrated-working":
            "106f4abaf7bb5d03db295cbcb032fe79a6bb0253bcda52658be8624928ce28f5",
        "integrated-protection":
            "1bfaa9a51f91abfe52c20c1e6917e8bf3313625860274684a58ba4afec42978e",
    },
    "ring4/spare-unprotected/sequential": {
        "working-mpls":
            "c51c7854db91a3671525c114935529e7f5aefdbede634a0b97198ed5f3ccc047",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "a383a26fdd81a3386e16ae25ca7708058cd39b3634f3dc9d2d2727eb0da5408d",
        "lightpath-protection":
            "504cd31369a883eb3604cf80beaa655448b5b29378e15c90894dc980c84f4823",
    },
    "ring5-chord/brs/integrated": {
        "integrated-working":
            "a4d1f483436180d32defc113e7c9fb85963ed7473c0acf9f993692268eabd68c",
        "integrated-protection":
            "82be3608253bf1c9b07845297eedcbd1c411d4479b5548dd9eea0be329643710",
    },
    "ring5-chord/brs/sequential": {
        "working-mpls":
            "4334f3bc12f5ab8f717758b5cb4f6b5a73c5623507e7f85826c38fac960805bc",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "21fcf73850cb2d44e0f40b73c333db501aa2825b2a6121008a4afc4f8729b69b",
        "lightpath-protection":
            "d0d8214235fc4f70cea3ef098194a3730d43e5bd297a03914c284b0824c013cf",
    },
    "ring5-chord/double/integrated": {
        "integrated-working":
            "a4d1f483436180d32defc113e7c9fb85963ed7473c0acf9f993692268eabd68c",
        "integrated-protection":
            "020586cf663f0ff226ebfce6354eaf1a8bb43be6daa90dc347c6db76c5336e36",
    },
    "ring5-chord/double/sequential": {
        "working-mpls":
            "4334f3bc12f5ab8f717758b5cb4f6b5a73c5623507e7f85826c38fac960805bc",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "21fcf73850cb2d44e0f40b73c333db501aa2825b2a6121008a4afc4f8729b69b",
        "lightpath-protection":
            "86fca72d7ad82cbb6ee2e4b77e331f417c46bc8358cd324a737b5b8623fffb13",
    },
    "ring5-chord/none/integrated": {
        "integrated-working":
            "cf4c655ab0773c9c9c5c1b2ebe0a887e820c88f35248b6d2c3bb13cc0dea9a3e",
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
            "dc042c45f7b0544a469542b80cec05446948f01b99d44165fb5c5b652776b332",
    },
    "ring5-chord/single/sequential": {
        "working-mpls":
            "4334f3bc12f5ab8f717758b5cb4f6b5a73c5623507e7f85826c38fac960805bc",
        "protection-mpls":
            "49b81f862f5c4959e2bcf7e21b0c4c7365b4a1fc9e47ca639aa58fb27bdc75cb",
        "lightpath-routing":
            "f94e42f915f236a05d514bd7d0d87ea98db55410118536cf2e732cefdf1a719d",
    },
    "ring5-chord/spare-unprotected/integrated": {
        "integrated-working":
            "a4d1f483436180d32defc113e7c9fb85963ed7473c0acf9f993692268eabd68c",
        "integrated-protection":
            "020586cf663f0ff226ebfce6354eaf1a8bb43be6daa90dc347c6db76c5336e36",
    },
    "ring5-chord/spare-unprotected/sequential": {
        "working-mpls":
            "4334f3bc12f5ab8f717758b5cb4f6b5a73c5623507e7f85826c38fac960805bc",
        "protection-mpls":
            "5926612a123ad94ff934ccf119e2f748821e0a2c62ad3ca283dc8f840d7b4af1",
        "lightpath-routing":
            "21fcf73850cb2d44e0f40b73c333db501aa2825b2a6121008a4afc4f8729b69b",
        "lightpath-protection":
            "86fca72d7ad82cbb6ee2e4b77e331f417c46bc8358cd324a737b5b8623fffb13",
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
        run_design(INSTANCES[name](), cfg,
                   solver=SolverConfig(keep_artifacts_dir=tmp_path))
    except (StageInfeasibleError, DecodeError):
        pass  # the stages solved before the failure still kept their models
    digests = {
        p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.glob("*.lp")
    }
    assert digests == PINNED[key]
