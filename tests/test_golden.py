"""Byte-identical output contract on the builtin specs.

One SHA-256 per builtin spec for each user-visible output: the three
``render`` formats, ``specfile.emit``, the preservation report lines and
the isomorphism report lines.  The digests were taken before the
connective registry replaced the per-module dispatches and must not be
regenerated to make a change pass: a changed digest is a changed output.
One more per builtin spec and for chain 12 pins the machine render of the
minimized system; those were taken before minimization trials inherited
their parent system's engine.  The ``emit`` text of the octagon exports at
C = 2..4 and of parity x parity is pinned as well, from before ``emit``
wrote each distinct point once.
"""

import hashlib
import sys

import pytest

from abslog import cartesian, logicgen, octagon, specfile
from abslog.concrete import preservation_report
from abslog.proofengine import build_lindenbaum, derivable, verify_isomorphism

from conftest import BUILTIN_NAMES, REPO, load_builtin

if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))
from perfbench import families as fam  # noqa: E402

GOLDEN = {
    "parity": {
        "text": "866e8ed322ec3806310e4e6515e971c77adb710c8d429f9d158454c588698e0d",
        "latex": "ec7924370db7b3bfc87c8e964605fe4a48795e467b509d9455a8d6b7a0ef2da8",
        "machine": "c65c13465c349a1aa06de31942a6fe0ad50d6c997daf252182df40f8187d56aa",
        "emit": "46d8b60dd48c2292a73c2f5c27f864b6d9047a6626b7fbae463ae88ff60dd70a",
        "preservation": "479b2883cf6f0a42cd9f7535525c8400f5020d543f06a5b96f20afdded9ab3cd",
        "isomorphism": "30eee9709a1c6b7dbe91a703ae0c3721a4aba642828b015f0a0fc5c27766c5e2",
    },
    "sign": {
        "text": "3759b54189fda781facd078a17b596b62f95078574f30cb9860c189141249593",
        "latex": "53cf582e4e67b77f91680e1bcad6649d6f0564a2e2ebc8cd67af00bd67186d1a",
        "machine": "aeb6f6d9fcfefd099445a9e28c627b7a92203f3610c85411f81ae57a37ef7211",
        "emit": "165cc238fab2fed537bc5cdd097b4a983fdcf87fb6094b40cefe549ec6233843",
        "preservation": "32f56fe8cc3c28ed64755bf4033aab0d2fdd007c130879840f9a19513109b35c",
        "isomorphism": "6db6c8b8b821092db66cfa36a34289a5f68f8544518539b33b9f02e068f8f2ef",
    },
    "interval": {
        "text": "d4d30f6ad372299baddada4f71532946d4ed82d405610d50a4a2cc2236a2bac3",
        "latex": "5d17bbe3ff569865a8c84d844607982be4bcbc3faa3b2d940d1d54e1beab3653",
        "machine": "40cd6b6a420cbaf97df972b6be08ae8b67c13e66167d35b0dacebf30d0b44e27",
        "emit": "f7be1060c9ee1a617988209761e1a5219250a6109be0eafddb08e5f4fc59748b",
        "preservation": "dffe762dbd4f647cb33c1a823702c77204cca55d12b2e3bbf89dc20b4c40cc27",
        "isomorphism": "6db6c8b8b821092db66cfa36a34289a5f68f8544518539b33b9f02e068f8f2ef",
    },
    "diamond": {
        "text": "8ac73bd3bd77a97971167ad8e3a1f5780a967aca9fcf08e72d496464cceba1d6",
        "latex": "12ae62f63a01b1ced778e7a1bb9001328a212f3d715f3df2195756739d8ed219",
        "machine": "d2239824e20b8725ab5c81ad47f2c50fa4937aaf3f3d9a5440cb7cec5c588598",
        "emit": "cb626bc5a4a3a467fc2661980fa78a8ffdf4c9fb3572613db96a5d0f2ee31be2",
        "preservation": "479b2883cf6f0a42cd9f7535525c8400f5020d543f06a5b96f20afdded9ab3cd",
        "isomorphism": "30eee9709a1c6b7dbe91a703ae0c3721a4aba642828b015f0a0fc5c27766c5e2",
    },
    "threechain": {
        "text": "e11c468519371017bc1707ad89cbe87b13253969093081b25f3b7e56ad76ac2e",
        "latex": "4f198218f695b29dc7adca9b0327a95bb76c6c6a83a91a11e4db4320267166fe",
        "machine": "4d97e25911fcba4a4637b16528f162b621cbc0fa263096d11ba153070ff571a8",
        "emit": "1761ad841f9772dbd2b350c4a1a8562201f243066dd22bb43f2868661fa67c15",
        "preservation": "0690bc85a26127776f002e17743da5bee239f91b40ff4adc6faf1fbb805e5053",
        "isomorphism": "a911a43257033137cfaf5d21033922f212752008729a7b454fb349ba7e1576f3",
    },
    "m3": {
        "text": "92598c83c8dfd6634b18a73478907c25f7e9201a23b5712729bed5147c02f7b6",
        "latex": "67512046512166b1e57c6b0fa2908c726ac32ae72e1d99659f50f08b6b174929",
        "machine": "2d5eb980a95fc150842cec501f49ff267da39d7b367c68509143c2429a67a4e2",
        "emit": "da3e9d78263239834a29edf1f1a4267f7a1c1e2874eda3e5bd55b7ea0c62adc0",
        "preservation": "7c0972689fa3f79897e04ed92e5c8c6cac90b7f303bdf63fea9699dd94e52dec",
        "isomorphism": "6db6c8b8b821092db66cfa36a34289a5f68f8544518539b33b9f02e068f8f2ef",
    },
    "octagon-c1": {
        "text": "0cb2346bdb1c7165d4a61f20f79107dd48b2ec22176fdfaf40d4de951c6ea395",
        "latex": "1048fb1ffa3b3b87a9d940d591c454b9c90c373c11b7dafa8ee566b2accbe54f",
        "machine": "4e5dd7e00be3a261e855c67639d72abdd704c4c47426044705c4151501390b16",
        "emit": "83f08cca2c2ac29ad59c1de45f7e044181e73ab20655477854ff20586bf4a699",
        "preservation": "a2cf58344b8cf9e8f904e17b221d073582cb4885ac1f1ec4587bb07a771c4b28",
        "isomorphism": "5ab63003f27d0469b11c599052e548b555906c08df7c21f761a40b5dca4e96c6",
    },
}


def _outputs(name: str) -> dict[str, str]:
    abs_ = load_builtin(name)
    report = preservation_report(abs_)
    ps = logicgen.generate_proof_system(abs_, report)
    iso = verify_isomorphism(abs_, build_lindenbaum(ps, abs_))
    return {
        "text": logicgen.render(ps, "text"),
        "latex": logicgen.render(ps, "latex"),
        "machine": logicgen.render(ps, "machine"),
        "emit": specfile.emit(abs_),
        "preservation": "\n".join(report.lines()),
        "isomorphism": "\n".join(iso.lines()),
    }


def test_golden_covers_every_builtin():
    assert set(GOLDEN) == set(BUILTIN_NAMES)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_outputs_are_byte_identical(name):
    digests = {kind: hashlib.sha256(text.encode()).hexdigest()
               for kind, text in _outputs(name).items()}
    assert digests == GOLDEN[name]


MINIMIZED = {
    "parity": "8bf3fbef80b6060be36b151a2c97fec089a3746c41e41088fb0fce72e2cf82b2",
    "sign": "ee9880801f846f1e52eee3dcda14aebc3c6942c1cd272b97771f2df538fb8d3d",
    "interval": "f8009db5189cb7a39ee50b4bb1ea9e4dcd72bb6b1b6c48d55a9579344a4782e7",
    "diamond": "5f38f1e044cf8665f33a4d2ae2759454f2e9a17670d512cc3448159777d69def",
    "threechain": "3ade8af659403346cb99ed93f5f94fa3375af6ceb1653b340b26bed4d25dfdd8",
    "m3": "77b7bed25bb93411b7fa0c49c626128ea3883ecf2c784935c194f473a4e212e9",
    "octagon-c1": "398fdc27e0298577193e4025e3a7d52a48fd9b743041c29baf33a693586e38ed",
    "chain-12": "bb7248574de911368825b959b9706a1af8c4f3ac28cce8b15eac9a5171c1ca16",
}


@pytest.mark.parametrize("name", tuple(MINIMIZED))
def test_minimized_systems_are_byte_identical(name):
    if name == "chain-12":
        abs_ = specfile.load(fam.chain_text(12), name)
    else:
        abs_ = load_builtin(name)
    ps = logicgen.generate_proof_system(abs_, preservation_report(abs_))
    text = logicgen.render(logicgen.minimize_proof_system(ps, derivable), "machine")
    assert hashlib.sha256(text.encode()).hexdigest() == MINIMIZED[name]


EMITTED = {
    2: "d115a08245d553d656cec9d11408fff906b5546af9d06bfeeb62132b1fb00a8b",
    3: "52f58e758a454d242d0cfe4311dad9f88a0af34b46d1e832322bb678f7ef7880",
    4: "44463bcf8475f757f70dd812c5e9d90f534b419f53eacbb14b01b00ebb9b9b62",
    "parity-x-parity": "a89d0add95020c91a16234e21119da5c6fb8833ac3c47ed1e748474d62fd4d55",
}


@pytest.mark.parametrize("case", tuple(EMITTED))
def test_emitted_families_are_byte_identical(case):
    if case == "parity-x-parity":
        parity = load_builtin("parity")
        abs_ = cartesian.product([parity, parity]).abstraction
    else:
        abs_ = octagon.export_abstraction(octagon.OctLattice.build(case), 4 * case)
    digest = hashlib.sha256(specfile.emit(abs_).encode()).hexdigest()
    assert digest == EMITTED[case]
