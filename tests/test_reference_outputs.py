"""Every reference output of the package, pinned by the SHA-256 of its bytes.

``CLI_PINS`` holds ``omit-lab`` commands, each beside the digests of the
files it writes; ``stdout`` is what a command prints when it is given no
``--out``.  ``CONFIG_PINS`` holds the digests of ``emit_config`` texts.
``ARRAY_PINS`` holds the digests of the bytes of the solver arrays of
benchmark chains (see its comment).  Each test produces every output,
collects every one whose digest is not the recorded one, and then fails
once.  Its message lists each such output under its command or chain, with
the recorded digest in a comment and the produced one as a table entry, so
a change that moves bytes on purpose updates the table by pasting those
entries, in the same change whose ``CHANGES.md`` line says why.

The digests were recorded with the Python and numpy versions in
``RECORDED_WITH``; the message names both, because another version may
format a float differently.

The θ sweep's ``manifest.json`` holds the digest of each point file and
of ``bundle.json``, so pinning the manifest pins the bundle.  Only its CSV
form is pinned here: the JSON form costs about twice as much to write,
and its point files come from the same ``_spectrum_text(..., "json")`` as
the split spectrum's JSON, which is pinned.
"""

from __future__ import annotations

import hashlib
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np

import omit_lab as ol
from omit_lab import cli

ROOT = Path(__file__).resolve().parent.parent

RECORDED_WITH = {"python": "3.11.7", "numpy": "2.4.6"}

SPLIT = "demos/configs/split_window.cfg"

# Command (run from the repository root) -> {file it writes: SHA-256}.
CLI_PINS = {
    "omit-lab figure fig2": {
        "fig2_linewidth_vs_power.csv":
            "9ce46cc5552e736e029fcd2107c24f82dd516071ce4f7188a4f293adc66ebf24",
        "fig2_spectrum_standard.csv":
            "bd7eafd4ddcedfefb23ac83a740906063d59c5a4967c61850b81ca8c24a94029",
        "fig2_spectrum_two_mode.csv":
            "c1e228c85def3de2447e87184de49ad15170686cced60960fe789f756ccbc1a7",
    },
    "omit-lab figure fig3": {
        "fig3_unbroken.csv":
            "c1e228c85def3de2447e87184de49ad15170686cced60960fe789f756ccbc1a7",
        "fig3_broken.csv":
            "c75b515fcc0d6f56c0842950d0484ff20814e35ef309284ad879a8b40816e38e",
    },
    "omit-lab figure fig4": {
        "fig4_theta_0p0pi.csv":
            "e2772b9178a2484d335bce5e3a17d59834352a60271f88fddb37379e7b4f1600",
        "fig4_theta_0p5pi.csv":
            "39e65e642dfffa36d75f3018490d7ea4030f4e2b77ed76e5651780251f19e32a",
        "fig4_theta_1p0pi.csv":
            "aebf6fe34a18081011efabdf8419873ce20868631c6dbf76bfc7f8603ce47c87",
        "fig4_windows_vs_theta.csv":
            "85bd898d652cd9fa83f6e2e20901d5be339488bf4f0db3f51ff3f655321938cb",
    },
    "omit-lab figure fig5": {
        "fig5_theta_0p0pi.csv":
            "dd5cbe379a899a868542bcfde0e34247c7ef6204325356f32e89f1757e343482",
        "fig5_theta_1p0pi.csv":
            "c85f0e9480fda90f117d8c7137e2f72ef56f06c4da2b8c966ec86810d21f7880",
        "fig5_max_efficiency_vs_theta.csv":
            "2539e4170a53a12e1562bc06d942c96b47fba46ba6fd6772fad26d99c1d57b73",
    },
    "omit-lab figure fig6": {
        "fig6_spectrum_broken.csv":
            "39e65e642dfffa36d75f3018490d7ea4030f4e2b77ed76e5651780251f19e32a",
        "fig6_delay_vs_theta.csv":
            "b5413a7e3004771cc6d34d902c8f25e7ef7c674d99915adba22fe2f63ea838b0",
    },
    "omit-lab figure fig7": {
        "fig7_n3_broken.csv":
            "7d19178f16e8498c72b18755014ace6ed351a1b2fc530c1e72351786428c2ef6",
        "fig7_n4_broken.csv":
            "a495e62a7a1d814cc01101e3e25d1160a03b1ef211c33e97265b4022c5c7eb6e",
        "fig7_n5_broken.csv":
            "7e7257ad22e04d7036dec0ddfcb09330cda83f034fb728b3bd7e92868f4fb02c",
        "fig7_summary.csv":
            "85eb9eddb353e8c3eec85aa038906bba729652d52bf49f799aa9bb8fca58c3b2",
    },
    f"omit-lab spectrum --config {SPLIT}": {
        "stdout":
            "c75b515fcc0d6f56c0842950d0484ff20814e35ef309284ad879a8b40816e38e",
    },
    f"omit-lab spectrum --config {SPLIT} --format json": {
        "stdout":
            "c300d19266338d9d989db99bd2526b573fa571842aa50135f194e040f5693679",
    },
    f"omit-lab sweep --config {SPLIT} --param theta_pi_units "
    "--range 0:2:61 --lock-delta 1.0": {
        "manifest.json":
            "afe90c8631ba3b132bfdde0a4222d1542a43753d6f36470314c57d555f49f609",
    },
    f"omit-lab oracle --config {SPLIT} --omega-frac 0.95": {
        "stdout":
            "8b5470cbbe631338fb14b10321ed9fbe02fdbff41e1beeb3ce715caf0234ccbc",
    },
}

# emit_config(config) -> SHA-256, for the conftest ``split_config`` and
# for ``standard_setup(n)``, keyed by n.
CONFIG_PINS = {
    "split_config":
        "1da5b63942df48858fd9b8491c092bd7e880d6a7772fa9a944ffe92208efdf3f",
    1:
        "0466e177b94af0080feeab76f2565b969ab35ba33a364a986ff44341383f7225",
    2:
        "2966804af5146030ca54aebef5d7e7b6028f2079fddd4d5e1194dff1b0f1e99a",
    3:
        "c29d4fd6629958217b7f7a29ff538129837415ad7fe71a8472dd569abd479f31",
    4:
        "8424fda3a93efab3b8e550f5fc13b51a292654b223a76e411419e41e9c7ef634",
    5:
        "08fbc50cebaa6f2e321d4d9397c7bef667ef1b596856c4f6ed12ec7361d5db63",
    6:
        "6a97d048a96057fb17aeaf616e41bd8218c8099d66eabd3206f914b37397be53",
    7:
        "d85f545524a2f2bb9cf43204ff286fb662b9f866bbcf524c6b24600dfa5acc50",
    8:
        "6e839a402a461170244250b94bd6cd6288a4e5556f8fc680bef9111dd958b95f",
}


# The arrays of ``standard_setup(n)`` ("dark", every link at eta = 0) and
# of ``standard_setup(n, **BROKEN)``, keyed "N=n dark" / "N=n broken", on
# the default K = 4001 grid of ``compute_spectrum``: the amplitudes of
# ``solve_first_order`` and of ``solve_second_order`` given that first
# order, ``t_p`` of ``compute_spectrum(include_second_order=False)`` and
# of ``transmission_via_normal_modes`` (the star basis; N >= 2).  A single
# mode has no link to break, so N = 1 appears once.
BROKEN = {"eta_frac": 0.05, "theta": math.pi / 2}
ARRAY_PINS = {
    "N=1 dark": {
        "A1-":
            "4f895367e1886f3272e0a545b9b9c51048794709236821f745b84b572ae30697",
        "conj(A1+)":
            "259d4163b5257070b70b671fa74fe926f724e995c1e0261bae5f27fc49e5688c",
        "B1-":
            "d9ad0aec172f408ad04a7ab7a286c3586e38abbdb946b0898c3f1ce380c0dda6",
        "conj(B1+)":
            "fde347c0f3dc5eb736356a33f2aff8dd8686a6e743e5b831d732cd9292894412",
        "A2-":
            "154a399b5676df03a5b4669db315a90082a08dedb5e151f81cf040712a3f6c59",
        "conj(A2+)":
            "3d5d855f9c92c397f729c9cd3993efe548b03dd36171700a49db3d14eeb6e692",
        "B2-":
            "160f18e0680edbb894be3bcd7df9972b3a3e715d6b89a6f91f23147d7e0189cb",
        "conj(B2+)":
            "9fded30ae37ba1258557b586807d4bae47fba5af9d0257ee27bf9b3e0f6c99cf",
        "spectrum t_p":
            "ba3a0cfb57518b5468d6f3eb5f012e311dffc357067e45ff980c295ff8dd8ae0",
    },
    "N=2 dark": {
        "A1-":
            "2221007b4377f48a417298ae8b79c5d7eb05f903f3135f6ef887769bc57d8c92",
        "conj(A1+)":
            "691b1ebf9c6e11741764b84eeb62246b8c79375c934743e44ebd58c3055b56c3",
        "B1-":
            "7f9568aa4b7235a0f9847d6f48f509a5229d1dd416e4e7715ea95daa28cda93d",
        "conj(B1+)":
            "fd37cf3a1e05f98b27395abc16f9f3101b214a122a5f8103bade9e9d9bbda60b",
        "A2-":
            "7df0238ad9b27b14123cb896d4cda6d4583a64a7b28e22aec6d2e10d1e9a5023",
        "conj(A2+)":
            "ccf0d191ee33a2f34bf38e2723778e509922f3ebaf3d83a72109f6c5cd7d83a5",
        "B2-":
            "6f7eeba0bdbf6609bfe5c3620722d663cb6018217fc49e5c9e96b0755f506a54",
        "conj(B2+)":
            "189968f869e153066e2601184e2859dc363141e8308b95c1ae09b072625388fd",
        "spectrum t_p":
            "77aaef633ef5b52257be5daf2ee4831e18f684f88b38f6145719314e43daebe9",
        "star t_p":
            "ddb36efc29649b879b035ed61497a136f3af462bea0222c0f4e72727406ca550",
    },
    "N=2 broken": {
        "A1-":
            "691e4b21952e076afc8696b60914c0dd424f87e4cceeaadc14941fb88b30d227",
        "conj(A1+)":
            "7637ef6d501d097755cbe82f68bb19ffb88129744ec131bb3450fdd2173bca47",
        "B1-":
            "b9e03491960344cd9ef4f7ef3fbf3fe2c7b51eee2b5069a6c1d7e1a89188c9f9",
        "conj(B1+)":
            "9d71acc1e426e82c76e6bec69b503aa67707f55ae415451f067f416836099d8a",
        "A2-":
            "3792b0004f437934ff787a077513bec396efaec1255e42580d8192c3b5371aec",
        "conj(A2+)":
            "2b7748eb52cd3e7a669a37a60d1e32ad003e93600538ece0384a3e76e8c256da",
        "B2-":
            "6bf667384e35fbddf6a6b16d9011eaf10a7571db67b6c48c9764e88dc3a01aaf",
        "conj(B2+)":
            "81f2648a43f5e3f0ee59ab53e9e840fa3b4b9365cb8c18ebb72ac20805704fc7",
        "spectrum t_p":
            "7dad1b654ba41e62930c7755d4ea25d78225e6c035dd08555c041bc2ecb99c7e",
        "star t_p":
            "0db13f9c81ca33bb1a447b5054dae02f981236b1709bd80419fac2bb717e88dc",
    },
    "N=4 dark": {
        "A1-":
            "2f57f1dc807b41fa4179dde596a1e3ddf45b761eb26e858a0fc11e40c8138a89",
        "conj(A1+)":
            "32988f50d68024b06a2d752221e747b01ac8487fdc076dab771d6639146739dc",
        "B1-":
            "eaabab4a1d16520e7c8599496452c6994bd592ff4a2c5d5809e3c218910e4ebd",
        "conj(B1+)":
            "cf9b4de1d2133bdf348c07a87542551b47ad99b3c957610812cd73cde2912b12",
        "A2-":
            "fc5241e407bd90f98b7fb9432d93f968fc2f29e9a9b2ba26d5775066c56d9701",
        "conj(A2+)":
            "bf3f47d46680a1fb7798d6d597641b5197234cecd6ac36de49fd00f791431ed3",
        "B2-":
            "c04b1be1610d6b21c54a0b8d609a7de950daaf66da183264c960ccc4b462a082",
        "conj(B2+)":
            "9162f146e7d7a49dab138455d78df366ef30a502bfdb63dedf32a7c13051f4f5",
        "spectrum t_p":
            "3fae663d1910c2d985c31c2ce020b8d5440c4b163f6e898eaece148178a59902",
        "star t_p":
            "99433b06fc847ef91debdaddeb9e03f922cf2fcea58044bdcce894ab9414cb0f",
    },
    "N=4 broken": {
        "A1-":
            "b6a9739b4d75a84236743b2917653436d3514e886919c0f41ab0313bc7c01984",
        "conj(A1+)":
            "5a336926fd97399bedea56f0977448e816ebd8e711e69881d9377cc14526c5d1",
        "B1-":
            "19cb4528f4583cc4422d0e52d8e1c8cfb375ea15d44818c234d0000419150b69",
        "conj(B1+)":
            "92894b919d308c2094bdc1c74d0203ead161db80907e35cc558a10e59efe8072",
        "A2-":
            "08aab834d6595d3c243592a56a5e11b8d2228496e76ea870037f9ab0366b7125",
        "conj(A2+)":
            "4aacd11d82db8770678506ebca0e4bfe5e2db78fd37f688f587957f9513cac3b",
        "B2-":
            "a0be2f7cc5ea0c5b81569e0bcd7ea4c5fe5d0875199c6bc3b83103b1b8f7603f",
        "conj(B2+)":
            "b5e81447974a1c1b791fccfdcb2f4ce1ddcbf891ce754e5888de9c2d0b0720a2",
        "spectrum t_p":
            "b9386a7caf0d04b86e184737b43565d246ce3c587bcd38f1a7a976863bf4c24a",
        "star t_p":
            "01a863b3fee5cb2d7ecf901b592652c458e71011e94fcf8afa6e878dd8857441",
    },
    "N=8 dark": {
        "A1-":
            "006991e56449deacaf2857e3c4f1be93fe330e671a86b8ba781e9d60a35bca3d",
        "conj(A1+)":
            "31b6ce0be3722742a5e071116c0f41dbb2866ff90acf077261be098c4b596897",
        "B1-":
            "bc7e84b5733d411b11030b8dc8cf94510f9c1788121cc67fd7fee04bfa87af47",
        "conj(B1+)":
            "6308875de6e9e6b9c847220402e1bbadfb7de14fca3d988050d0616c34a39e38",
        "A2-":
            "3984ecfc86cb746f5faf4fde176aa8dc19aefe97a052b070641c3cd70408cab2",
        "conj(A2+)":
            "8429c6cfa9ca064dc3b575dcee79b32fc3d311f12fd9bd0d025f9ba88c415931",
        "B2-":
            "ffa9fa1fea98cc4cf0f97be69a39996717deba6e62c541bcf5e0caac222b13d1",
        "conj(B2+)":
            "ec586c84b396e597eef7d5204e2f95ab1285e4fa39199b0e4b0816b6021785fd",
        "spectrum t_p":
            "83b2799b3c87741df921cc034c8f381534962188801cd1d189b47f1d926aac12",
        "star t_p":
            "146b125ae9e6bc5add19068a8fa78e885f7b22928474c619dcaebe48e346c13d",
    },
    "N=8 broken": {
        "A1-":
            "fcfbc5d81cf2ac4e7eb8392186a8c19c1e20cec3b6ed8947b36b86458fb2b2f2",
        "conj(A1+)":
            "515b5d83964131a66248989656a638a1d09d318ee9f3ca30246813e61b0f3bc7",
        "B1-":
            "40d5959cd6762e61abc428f5aa25be47752706ec0780e437716b32231f4a9b53",
        "conj(B1+)":
            "29862e1c9739de01ade9f578a088201b1d321f46f48e991e817c42f4a3e4f06c",
        "A2-":
            "d206ad5834f1935360fad74c8acc933d8c5eecf2cec51b9f9965027d91a51907",
        "conj(A2+)":
            "28516e7bff5f7fe6293261a1d8645458f3125b179613357c8b0aa7d58133ede7",
        "B2-":
            "742ad58f2501d2f4bc17e99a424c877979be2fd562cce5fdf2508d971549a6ae",
        "conj(B2+)":
            "be92d64da4d217f76fc0c6d3995e7ee71ac8457f14fc98ab6b1be080668bf6a5",
        "spectrum t_p":
            "729bd3d21b7c21be99558d840bfd038942fb0671f7cc59c3e9adf2d17efeadb0",
        "star t_p":
            "b375d1a2f13e348cecfd7d2d2a6ad3a13612a145b2d4b29927226fc3b416d709",
    },
    "N=32 dark": {
        "A1-":
            "00df25fd1d3d26c72d2e9ed68c57c7caaaf99d8de6ce4b3fc9e476693078d8a6",
        "conj(A1+)":
            "a2956234a33f5885cb9a94711321e6a15a2d475cce909ce2a2720e4c8e8e9d4b",
        "B1-":
            "f768cd09544082a61805511ed1bd91080b085ac39a8eafac72a9aa159728fee5",
        "conj(B1+)":
            "fe3bf205e2c576f58e79231e5017d8e8f7906e5fca22961b7c4b544d1a85098a",
        "A2-":
            "ef186b4e9328ede3a8dd2f807795733dbf35c0810deadef2d87145fee5315379",
        "conj(A2+)":
            "66594f5c27b1d22075ffa098516b2a0b651dc3be1ea2e1ea402388b5151642c0",
        "B2-":
            "ebbd917de1725f2f433a53632727c18b9ed5e8dae8c47f2f4ec5f815e2fb0bc2",
        "conj(B2+)":
            "e2a138fbf9b84ffceb079e865b6b311643fccfa24e6b8aed75075001d926e1ac",
        "spectrum t_p":
            "e95ccbb6fc35fed21278dd87b24e73b79f75268c2ac4e4cd8b195b983cde8c48",
        "star t_p":
            "ad50789635ffc03bf37b3723326e0071d21fd2034f860700876dcce81e458a3a",
    },
    "N=32 broken": {
        "A1-":
            "614333b7dd66fe83f86e6c52b91ce48584c7c8963e25573bb98ddc96a2305b24",
        "conj(A1+)":
            "71415e7c05de466722dc73877ec616e7f526693cb7c91becebe61925f942c8d7",
        "B1-":
            "7c6e0c4e56290f3d16c120c32ae081aa695e291ff017cddf0db3375aa5e2e72b",
        "conj(B1+)":
            "99c4e4fb898dd318240c07f21268768d0d21a2d49ac6572698f8f325fb4ac27a",
        "A2-":
            "5e64ca7b113b57e049aa71d46491c1a38ba22b3b377688e60dce9113a02f1630",
        "conj(A2+)":
            "6d3299372fec765e40d0d2349dbbc1ce231786a291a234fbe177724a7f609e12",
        "B2-":
            "6af57a4a31e1c7a99b5621d9085b095a009ed81dc70d760b97f9628c3f21832b",
        "conj(B2+)":
            "04e21b69eb1e83b06154538b8a8c751adbb3bfe9feaace6e167c7fdc770b3301",
        "spectrum t_p":
            "fcd869bc2fa0a900f0cd3f824e68e634bdd0f83e06c2b1c37be12403e48e40cf",
        "star t_p":
            "ddb0209c7d8e8279a019688102210b881a611dd7e6ea7e03c936f0b1be59016e",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digests(command: str, out: Path) -> dict[str, str]:
    """Run ``command`` in this process; the digest of each file it wrote."""
    argv = shlex.split(command)[1:]
    if argv[0] in ("figure", "sweep"):
        argv += ["--out-dir", str(out)]
    else:
        argv += ["--out", str(out / "stdout")]
    out.mkdir()
    assert cli.main(argv) == 0, command
    return {p.name: _digest(p.read_bytes()) for p in out.iterdir()}


def test_reference_outputs_keep_their_bytes(split_config, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    produced = {}
    for i, command in enumerate(CLI_PINS):
        produced[command] = _cli_digests(command, tmp_path / str(i))
    capsys.readouterr()  # the figure and sweep commands list their files
    produced["emit_config"] = {
        key: _digest(ol.emit_config(
            split_config if key == "split_config"
            else ol.standard_setup(key)).encode("utf-8"))
        for key in CONFIG_PINS}

    _assert_pinned((*CLI_PINS.items(), ("emit_config", CONFIG_PINS)),
                   produced)


def _array_digests(n: int, chain: str) -> dict[str, str]:
    config = ol.standard_setup(n, **(BROKEN if chain == "broken" else {}))
    steady = ol.solve_steady_state(config)
    spectrum = ol.compute_spectrum(config, include_second_order=False,
                                   steady=steady)
    w = spectrum.omega
    first = ol.solve_first_order(config, steady, w)
    second = ol.solve_second_order(config, steady, w, first)
    arrays = {}
    for order, amp in ((1, first), (2, second)):
        arrays[f"A{order}-"] = amp.a_minus
        arrays[f"conj(A{order}+)"] = amp.a_plus_conj
        arrays[f"B{order}-"] = amp.b_minus
        arrays[f"conj(B{order}+)"] = amp.b_plus_conj
    arrays["spectrum t_p"] = spectrum.amplitude
    if n >= 2:
        arrays["star t_p"] = ol.transmission_via_normal_modes(
            config, steady, w)
    return {name: _digest(a.tobytes()) for name, a in arrays.items()}


def test_solver_arrays_keep_their_bytes():
    produced = {}
    for label in ARRAY_PINS:
        n, chain = label.removeprefix("N=").split()
        produced[label] = _array_digests(int(n), chain)
    _assert_pinned(ARRAY_PINS.items(), produced)


def _assert_pinned(tables, produced) -> None:
    """Fail once, listing every output whose digest is not the pinned one."""
    report = []
    for call, pins in tables:
        lines = []
        for name, recorded in pins.items():
            digest = produced[call].get(name, "not written")
            if digest != recorded:
                lines += [f"        # recorded {json.dumps(recorded)}",
                          f"        {json.dumps(name)}:",
                          f"            {json.dumps(digest)},"]
        if lines:
            report += [f"    {call}:", *lines]
    assert not report, "\n".join([
        "outputs whose bytes differ from the pinned table:", *report,
        f"recorded with Python {RECORDED_WITH['python']}, numpy "
        f"{RECORDED_WITH['numpy']}; produced with Python "
        f"{sys.version.split()[0]}, numpy {np.__version__}"])
