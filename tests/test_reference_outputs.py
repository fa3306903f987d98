"""Every reference output of the package, pinned by the SHA-256 of its bytes.

``CLI_PINS`` holds ``omit-lab`` commands, each beside the digests of the
files it writes; ``stdout`` is what a command prints when it is given no
``--out``.  ``CONFIG_PINS`` holds the digests of ``emit_config`` texts.
``ARRAY_PINS`` holds the digests of the bytes of the solver arrays of
benchmark chains (see its comment).  A figure or sweep command must print
exactly the paths it wrote.  Each test produces every output,
collects every one whose digest is not the recorded one, and then fails
once.  Its message lists each such output under its command or chain, with
the recorded digest in a comment and the produced one as a table entry, so
a change that moves bytes on purpose updates the table by pasting those
entries, in the same change whose ``CHANGES.md`` line says why.

The digests were recorded with the Python and numpy versions in
``RECORDED_WITH``; the message names both, because another version may
format a float differently.  They also hold only in the numeric
environment they were recorded in: OpenBLAS's kernel and thread count and
numpy's SIMD dispatch can each move a result at rounding level.  The
message prints the variables in ``NUMERIC_ENV``, which select those and
were all unset when the digests were recorded.

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
import os
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import omit_lab as ol
from omit_lab import cli

ROOT = Path(__file__).resolve().parent.parent

RECORDED_WITH = {"python": "3.11.7", "numpy": "2.4.6"}
NUMERIC_ENV = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE",
               "NPY_DISABLE_CPU_FEATURES")

SPLIT = "demos/configs/split_window.cfg"

# Command (run from the repository root) -> {file it writes: SHA-256}.
CLI_PINS = {
    "omit-lab figure fig2": {
        "fig2_linewidth_vs_power.csv":
            "9ce46cc5552e736e029fcd2107c24f82dd516071ce4f7188a4f293adc66ebf24",
        "fig2_spectrum_standard.csv":
            "027b6298abe557e859d55a2645fbd596b1cef68673189b7e122227832aac8173",
        "fig2_spectrum_two_mode.csv":
            "4b431dc9d6c8cb7f95ca7466f9b566b8f81caf6d0ef9728a355400372ad385c6",
    },
    "omit-lab figure fig3": {
        "fig3_unbroken.csv":
            "4b431dc9d6c8cb7f95ca7466f9b566b8f81caf6d0ef9728a355400372ad385c6",
        "fig3_broken.csv":
            "5035eaba6d3503a3d74e748b6a0b0369402c6b970e24dd2d7252f10bf0cb7780",
    },
    "omit-lab figure fig4": {
        "fig4_theta_0p0pi.csv":
            "48b8b64867dfcbcd2a2c8ff22f0c55b540968568c8fae77c7f6442c8154750a7",
        "fig4_theta_0p5pi.csv":
            "a4d099be845967e51aa4722b338fbee1e6233b9c8cfd32139d62bdbe0db68710",
        "fig4_theta_1p0pi.csv":
            "32787ab2f2bec61637e26f65f20dc1319e8970982498444ceac30e7d30bd1da8",
        "fig4_windows_vs_theta.csv":
            "85bd898d652cd9fa83f6e2e20901d5be339488bf4f0db3f51ff3f655321938cb",
    },
    "omit-lab figure fig5": {
        "fig5_theta_0p0pi.csv":
            "20d1c5a1cabbedc7013aff254813b639d1b0cee8c9edd3ace9f71f9dd4ae8f4f",
        "fig5_theta_1p0pi.csv":
            "c25ba7b2de518b2d2328af946543662fe69b657013d237c1d8ce81c7a7abdd82",
        "fig5_max_efficiency_vs_theta.csv":
            "02cd7716ce8c07df9e7f3bdca75b573c43b324100e0523931f551d0aefd931c5",
    },
    "omit-lab figure fig6": {
        "fig6_spectrum_broken.csv":
            "a4d099be845967e51aa4722b338fbee1e6233b9c8cfd32139d62bdbe0db68710",
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
            "5035eaba6d3503a3d74e748b6a0b0369402c6b970e24dd2d7252f10bf0cb7780",
    },
    f"omit-lab spectrum --config {SPLIT} --format json": {
        "stdout":
            "5fcb94c11671d258b29045ea2b56b736cb9fc1343542de827e5b8f541d40e3e9",
    },
    f"omit-lab sweep --config {SPLIT} --param theta_pi_units "
    "--range 0:2:61 --lock-delta 1.0": {
        "manifest.json":
            "3a028023b2cf231a24b2213f761db4ad69e951c5a30749aba0f7e8d721e3f582",
    },
    f"omit-lab oracle --config {SPLIT} --omega-frac 0.95": {
        "stdout":
            "efe88747ea6305c01d821dc5546ab2a0942b74f950ba28fa5fd68a5a743738c5",
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
            "38aba72b814787210a6b03968792a21a59b52937d9c24136ee1f75402890df25",
        "conj(A2+)":
            "0a052d55076e09820ed077eeb59432f589c0d317f85ec2d2d6734f7fd04642ea",
        "B2-":
            "ea28c38ed60c55c75b8938ff6500f1026482e773b3060b5e6fdef76592d209a5",
        "conj(B2+)":
            "5e3d289048878385b3bba0dc58bd629f7ba36f5952d9054d42767afa601b6bed",
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
            "6407c2504573cacd56bc676287f738533b3ef6032ddd4069258825876929715a",
        "conj(A2+)":
            "98da618f1276ffc47799a584df7f8d060d2a7cdf37459e18273dccf1bb641cff",
        "B2-":
            "156f3948d93d49d65fcf218563ff99e6e1b2b1dba2051117b801748c8c4e1b10",
        "conj(B2+)":
            "b7a253892e4b2aeccf340376a4b12775e21f469ce7ea00c4537d974d84497fc6",
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
            "6fe8f39ccf552390a90b1b4d4bd016e847cca9ce183f91660754d06330271c0c",
        "conj(A2+)":
            "61cf84fe6a8aa83b7da71d54ce1c4aab3a004e885b2da2fe90d6f6c51ca30197",
        "B2-":
            "6e05fa7d27f030a03995ef153d1966b61af5248333db91f3b34f9d52862fc70a",
        "conj(B2+)":
            "d97b94ecf92e947bea1c5f447002bb1f9f459bdfdfbdde4449af3160fa7bb2f6",
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
            "64079ce92252163e0ed3ab8081ce405abdee0027915f03c7d1c80d859c968bfc",
        "conj(A2+)":
            "7c40b874161debb981dd26a5c0cc0dfc7b6bfa4ac498f7a7f94ceecb7070dc99",
        "B2-":
            "597656c4a8955fd2d25cc19ad376a63cd7cb4985116b0af965cad9e5546b08e9",
        "conj(B2+)":
            "279df146581b4d383803ffe0bf8411d18f233a17b20c2a107133f1c55bed53e3",
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
            "083641144a9d93bbf164cd24fbbb6a7091772de003604788e2124759812bd411",
        "conj(A2+)":
            "a4e830fcd12755c7f09b16ca9060ea23154e96731b635b604765d7d4e321561a",
        "B2-":
            "02517b1fa4c984dafd90be94fa4b419edc4eb1ef0e4d831d1d194cdb995bf36e",
        "conj(B2+)":
            "13f1daf407aaf0ea0d406fe45617c0760e7c44472956ae09e005514fba4c76f9",
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
            "d9000e57bc887cff156936ec581dafb89a4ba8473b4acbeee87be6d6ecf8cd4c",
        "conj(A2+)":
            "5583a1cf395fc7509073968e762c2c8a5f20d3af0cdc9f928c7453174a25a072",
        "B2-":
            "099c7125b434bf9a1f128deb4997d162d6b9cd7547a5113b1d4d5034c46b1725",
        "conj(B2+)":
            "c68eb63968d3822f60618f2ead963b7858bc81dae4e6073e3d6d8ee91236cde1",
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
            "a46a496d64342a4408ecdff0ca76d8c03298a8249d2a72b68095051504bacaec",
        "conj(A2+)":
            "2e7cb734700989d51353513ef51e577d531b6f9b06ad6a602c56bfe8fb319ac3",
        "B2-":
            "833cb45a896f5a27e8fc91f1da690d8003f343f305b6609201ddd0eeae58e669",
        "conj(B2+)":
            "a67ca68392d28aa6c5e3a97f9d88aa0fcb8d4b3ddd471faa26e6de38341f2426",
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
            "0e53433d900ce8fef1a31e3d0810523a8c8f8c3221224f542ce4e5d2217dbbcb",
        "conj(A2+)":
            "b2ebc72d79d4805458b58ad51e48e71b80c9d29a0fc4b6f86bddd33c4db03289",
        "B2-":
            "0be577341896dab86c70ac39946bbaa99bdc2aa25ba85a7f21affb3d39c497b3",
        "conj(B2+)":
            "dc849006658718600d957481eced0b120d51a3078f18dcc98e0ac5f02088ab3f",
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
            "dd2b87d0c1f3e9ba353941d44f54484dcc5bc36aa7123455a62a6da60322a22f",
        "conj(A2+)":
            "4a509ba4cae52c95020e1c0b58b0b5c6c13efa3106041e55198f0753329a3524",
        "B2-":
            "4ff7f678ed0a30ea1ab32e91ded93ae8125f8920bef4d0104768a699116be26c",
        "conj(B2+)":
            "e5e24d97b525b3bc8dc9873ecf2a40911a6158e58f3f0723e66c0fac4e2352e4",
        "spectrum t_p":
            "fcd869bc2fa0a900f0cd3f824e68e634bdd0f83e06c2b1c37be12403e48e40cf",
        "star t_p":
            "ddb0209c7d8e8279a019688102210b881a611dd7e6ea7e03c936f0b1be59016e",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digests(command: str, out: Path, capsys) -> dict[str, str]:
    """Run ``command`` in this process; the digest of each file it wrote.

    A figure or sweep command prints exactly the paths it wrote; a command
    given ``--out`` prints nothing."""
    argv = shlex.split(command)[1:]
    lists_files = argv[0] in ("figure", "sweep")
    if lists_files:
        argv += ["--out-dir", str(out)]
    else:
        argv += ["--out", str(out / "stdout")]
    out.mkdir()
    assert cli.main(argv) == 0, command
    wrote = [str(p) for p in out.iterdir()] if lists_files else []
    assert sorted(capsys.readouterr().out.splitlines()) == sorted(wrote), \
        command
    return {p.name: _digest(p.read_bytes()) for p in out.iterdir()}


def test_reference_outputs_keep_their_bytes(split_config, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    # Sweeps are serial: the former worker-count variable is ignored.
    monkeypatch.setenv("OMIT_LAB_JOBS", "many")
    produced = {}
    for i, command in enumerate(CLI_PINS):
        produced[command] = _cli_digests(command, tmp_path / str(i), capsys)
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
        f"{sys.version.split()[0]}, numpy {np.__version__}",
        "numeric environment recorded with each of these unset, produced with "
        + ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                    for name in NUMERIC_ENV)])


def test_pin_failure_names_the_numeric_environment(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    with pytest.raises(AssertionError) as failure:
        _assert_pinned([("run", {"out": "0" * 64})], {"run": {"out": "1" * 64}})
    assert ("produced with OPENBLAS_NUM_THREADS=1, OPENBLAS_CORETYPE=unset, "
            "NPY_DISABLE_CPU_FEATURES=unset") in str(failure.value)
