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
environment they were recorded in: OpenBLAS's kernel and numpy's SIMD
dispatch can each move a result at rounding level.  The message prints
the variables in ``NUMERIC_ENV``, which select those and the BLAS thread
count, and were all unset when the digests were recorded.  The thread
count moves no pin; ``test_pins_hold_with_one_blas_thread`` checks a
subset with one thread.

The θ sweep's ``manifest.json`` holds the digest of each point file and
of ``bundle.json``, so pinning the manifest pins the bundle.  Only its CSV
form is pinned here: the JSON form costs about twice as much to write,
and its point files come from the same ``_spectrum_text(..., "json")`` as
the split spectrum's JSON, which is pinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
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
            "41994b498df060bfb6b1c4831e3bc90d819c329fa886c1446720f90b3f572f22",
        "fig2_spectrum_standard.csv":
            "0dba6b8734c0c01994e9010cde01e071d1d727abe821ce1d25e6928af371419c",
        "fig2_spectrum_two_mode.csv":
            "d48d4cabb9c4f3bfcc009be1b6b141b201b3f137e2010d25931f4164d4a5ae41",
    },
    "omit-lab figure fig3": {
        "fig3_unbroken.csv":
            "d48d4cabb9c4f3bfcc009be1b6b141b201b3f137e2010d25931f4164d4a5ae41",
        "fig3_broken.csv":
            "20bfc839c0c19fe5dea305a50eabd7c3968110ea0500f838ff6b23b08ec9c38f",
    },
    "omit-lab figure fig4": {
        "fig4_theta_0p0pi.csv":
            "de82f8aec31f659665d9cfc3da90cc55fdc7aa9fa5d9edfa76c86c53584e4a91",
        "fig4_theta_0p5pi.csv":
            "781241e0650e696028a1991a8e4ab1264da58ba0ae34de486062663d4214c9dd",
        "fig4_theta_1p0pi.csv":
            "00b1b7bdf25db08c1e5a714b9e894c3110df6d97d946ae7629086d4ce86ef21e",
        "fig4_windows_vs_theta.csv":
            "c56aff8fbaeb53466ac65f96b9bf159fab01f6db02704db099dfa1c772991a4f",
    },
    "omit-lab figure fig5": {
        "fig5_theta_0p0pi.csv":
            "489838e39a4c1609904eac57fcd3ad5224293df5fd4caafa23fb765daafd886a",
        "fig5_theta_1p0pi.csv":
            "e6163b2bc29fb05217124af060a4231e25f792663da2fecff7980c59d640a1b4",
        "fig5_max_efficiency_vs_theta.csv":
            "9cc3ae300ae6fdcb110a95cdfc91706781398b4726f3a662d2d2143b36b608d9",
    },
    "omit-lab figure fig6": {
        "fig6_spectrum_broken.csv":
            "781241e0650e696028a1991a8e4ab1264da58ba0ae34de486062663d4214c9dd",
        "fig6_delay_vs_theta.csv":
            "6169d7e00627e4b9d9572cf926c8cac10aae5657b3abb7d9a90275f465c107e3",
    },
    "omit-lab figure fig7": {
        "fig7_n3_broken.csv":
            "25b17f11c4aa83f1edb146aec448ef58eff581310e6f593b244b8880209c81b6",
        "fig7_n4_broken.csv":
            "4b73594791c86c68f2626c078052f0f2c290945ac24b0b9ddadb65467e31ec98",
        "fig7_n5_broken.csv":
            "0618c0d88632562027701c41f268b60c2c6924e46df3804f02f865a47289687d",
        "fig7_summary.csv":
            "9b0afd4c0f357191bdb3346f57fd365d67185c1ca4d2d16d4b2faaa47cae6435",
    },
    f"omit-lab spectrum --config {SPLIT}": {
        "stdout":
            "20bfc839c0c19fe5dea305a50eabd7c3968110ea0500f838ff6b23b08ec9c38f",
    },
    f"omit-lab spectrum --config {SPLIT} --format json": {
        "stdout":
            "90fd25d0c47b8074b5be76fe8f5fd50f6880c29af4021afc173d235b97d0c4fb",
    },
    f"omit-lab sweep --config {SPLIT} --param theta_pi_units "
    "--range 0:2:61 --lock-delta 1.0": {
        "manifest.json":
            "671311115b937f689fc5d0d71d88bfc4c7c6db2e63841485a20a8d694f0c5cfc",
    },
    f"omit-lab oracle --config {SPLIT} --omega-frac 0.95": {
        "stdout":
            "c59b69bb5d604e9fe0ac215eb4e64f16b740ac582f94bde80fd9028c40c0e2c9",
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
            "3acdec1ac5250a7e55514daa1c11ae663142ba3bf0589016e1af79a7fd30e254",
        "conj(A1+)":
            "616791c10974b22253991462e416db4ad8e3044b74f2d5d0aed5f435e646e6f2",
        "B1-":
            "92d18b5fdd29933b5b595ac8710083a7e8875280079fe65f62146c420167a052",
        "conj(B1+)":
            "a67ecbcf69ae68beda31a9176eb0fe2f973db154ca5e8494833af9b2b605b8f6",
        "A2-":
            "a64849722b6f2b0d268571d7fbbb507156434891c868a83e39b09d4fe2eac14c",
        "conj(A2+)":
            "e10935e80e81494781e310a82660794e01cc58920db13a84ce792bf4ff62f660",
        "B2-":
            "5c5b87e5fab20b9b7e2ddea459ea35e691331baf83ac961487b1d41a8c6d6078",
        "conj(B2+)":
            "21bba5767b1ea6023a847e16c1dd9a70602ca55db41229f08c17181a30f2cc20",
        "spectrum t_p":
            "fee6b256ef8db58e4e1b56c499795b0d47a2538a4e3ed206be7759837e7c3886",
    },
    "N=2 dark": {
        "A1-":
            "64d50dd660109908746bd8e725697e5ba645d4c416772eaf79d3491c239e7ab6",
        "conj(A1+)":
            "bf3bc77e1bfdf3353716f2c52389eb59ba40dacb6b35bfa5bda6066b1e0e5ad9",
        "B1-":
            "236ab1a59dc6c017dd1b7006d60489bb6da32b3bc9100ac1ca34595ba1b197c2",
        "conj(B1+)":
            "2a7d8837d76de26cfe514ace2b988eba33ebbb3b4910d59a28419d04a305be00",
        "A2-":
            "c4fe3ff27f0b170ad9c9d9513515076bda6b7b05e996409bbb6ffe1afbfb91e2",
        "conj(A2+)":
            "1c7a1d80920e6980c7bb5a1cf5e73540fd693f695b17b4d53063a83ad6eb00eb",
        "B2-":
            "10532242ac177b55478cba8e77bf71fdf2832f6bbdd32aa992d73c83e71ad612",
        "conj(B2+)":
            "d9912c2bf37c0e569f70b58700b276da6f59f0776e2c116735581503ed8667df",
        "spectrum t_p":
            "accd1840e3f25baa6e37903aee524f1b9e671bbd49f8ec4f8fb2e8a834590a5c",
        "star t_p":
            "af22f9f96b357ceb8d302343d2b320a0bbc635bbabdb35347a527c8818e32943",
    },
    "N=2 broken": {
        "A1-":
            "07b88d0f0e78d7a4aa17b4f5c60f818c72b8a13069a562209baddc139f3dc2d4",
        "conj(A1+)":
            "5727627241ed959092935cf14d23b116d5c9e8b33b74b964a8ba6335a6234d24",
        "B1-":
            "0c32bf6b34bad5781caf81b3bd3c4d375699951e1d8423daf54a78908a4da691",
        "conj(B1+)":
            "8b367fab2d29ee3e79b13fe5edda8cdd06d62d5abd1457b87d00c8b8a618e6c1",
        "A2-":
            "9cd85d147209c5a627b2e29f78622cd26e638277e7b5662fd35a5d60fd98c314",
        "conj(A2+)":
            "a6ff5aed04e5ce583075898ea377eb575d7042a1e931fe94e9f54e20ed33c527",
        "B2-":
            "f0fca0c7b1c63b6a78af15fb9b9c0569be69c7b1681a4269fc18ba0d5bb6674d",
        "conj(B2+)":
            "ad67d56c84b572f7d66078859c33b01758a2cdc5d61d805071dd9585eb1435e9",
        "spectrum t_p":
            "905a9a94d5774bf799ea714d4b7d4e11b550f8649c69780ed0823ef5a0312ec0",
        "star t_p":
            "4512bdc767e776a57915eba72c48279fa5334b9b5f4bac87ea3084d8f5acf9aa",
    },
    "N=4 dark": {
        "A1-":
            "5bd9af0d76e7a9751a6ee3a1767826ccb8e515fbcee38c68f5d37553ca9cf4c0",
        "conj(A1+)":
            "b0451993458fdb13c7e8767b58a71d057f2ec54b78eb46a05afdf79d90ba0988",
        "B1-":
            "1426f2d37eefaeb866094bbb1cfb9549252c1751521d4ad96cfd3b2dabb668c2",
        "conj(B1+)":
            "b74541d70fb525b9faa5af01c831aee6e15dc59de19dea5bde9cc3438c8281fe",
        "A2-":
            "d8661a339433c5e2c3de348ba0ebaf10495543b49746e473ef8b044a619546d8",
        "conj(A2+)":
            "fe6d6ec3fd13f6365201f6d15bd5535cf9214eccb70dd0ee75cdbb32ae7c2661",
        "B2-":
            "7020886578b2ab6d91d7d435eb6589c06ea3549d4a42e9070f195ddaea4544f2",
        "conj(B2+)":
            "4658238128d819e23c1d8636a2cd2677f961e9085a0f88db5b84cca291773698",
        "spectrum t_p":
            "cc307c4f5a5990600e5afda0c538f37462f8c6f3d3f45f96764f0d639da7d5f3",
        "star t_p":
            "f7b4138e793f58157258018e106fdb456f3f2a0aa21acde9812cdc122e28c5fd",
    },
    "N=4 broken": {
        "A1-":
            "988922160c5068788f66acbfb3d994ece151dec732329205255bece708049fab",
        "conj(A1+)":
            "19a56c0000a212ec40ad7fd61afd88e6683c504a93384eda98761ef27717a477",
        "B1-":
            "b00a9c4ae1cd2dbe5e4fae59202f5b6b7515675d4960f274b88ab0acd64ff7dd",
        "conj(B1+)":
            "05e0101c6c65c173f31fc4e2652f506c988f71d866023653aa7199e3092d3ce4",
        "A2-":
            "be31a814bb1a51bbee625fb8ba624ea83e659707f4b1b57f3f80be3f796f6905",
        "conj(A2+)":
            "923c9cbc179eca520d02a5633314e82a02fe8e23830452b7cf49d05a563a8a5d",
        "B2-":
            "d13ab64a0bc62435ebb576b877a6e76e53776a01531dbeeb67660d9afa93baa4",
        "conj(B2+)":
            "28d218d1cc79ce5bc09e2e1d8b2f578746186492d0ff72dff1d95b7faefbb9f2",
        "spectrum t_p":
            "2531c95c5fc11229cd7d0976a997fbc0f8cdb0dba740ce14bc4b56bf11369dac",
        "star t_p":
            "caed3db4bb81463607932954ebd1df1f8c601aa1f751913dfe31545780ad2779",
    },
    "N=8 dark": {
        "A1-":
            "3cb2b8be4b09f96cdd5692f543f337be5704dfadd8cba8b84ec08950b6353415",
        "conj(A1+)":
            "4c2e2491649f251ab6c55c5703729496738ee8105b7548205e9f454a3e51d962",
        "B1-":
            "d3ee5dacbfd350832c9c2d429b5da57b7b0ffab2eba92fef404015574212fc47",
        "conj(B1+)":
            "df60f5b5e6da92cc0c4bf97c9002e1f214dcfe2d440518abb25de09b4af6608d",
        "A2-":
            "988ac2b527441dfb1c22432e35ca47a650a0022f310d5479847aca7ace3f15d2",
        "conj(A2+)":
            "ae4bf3988e7d10c5bae0723ce0c9d1f6a9b224cdde642e21f3a729d1bda61d96",
        "B2-":
            "6700d5af5769136e5a7dd93bc5984b78752aa3a8af83d56430a445bb06030705",
        "conj(B2+)":
            "c9291ac419a27507cb2b81c70215b8d969c18f12b49f1ebfd251673c097bedc0",
        "spectrum t_p":
            "4569b9eb81d8591ddf576c1dca1d69a8e5ae24bcd1041bd4db8dab9afe8c398d",
        "star t_p":
            "e703676e2ebf588d5aadb8a88cb1f153f25b48e004b7f33a59c20c881e67e8aa",
    },
    "N=8 broken": {
        "A1-":
            "01c3a13365efc7ae454f50a45c7a72170766ff69653acc1547c7de91887fbefd",
        "conj(A1+)":
            "4e938711982f0241af83f2c8acba6117b1db0f8364c3bc48927c394e0687d551",
        "B1-":
            "c5662182332f8f5003f6015d7b9db6bbc8398182fc1b84734aa99805e1dcc348",
        "conj(B1+)":
            "7d152cbbad33565b01ddbd083c6485028eeaccaf536197cbcf6abbd4c9f728b5",
        "A2-":
            "0ebc664c5164726e804fe3b6a77fab50f12384fec68e3972f28c606c2119c56a",
        "conj(A2+)":
            "3205b87bbb443f64bad224a8fd150fa1f0974d847ebabecd910287d9bcd12baf",
        "B2-":
            "2271de66406e8156dd8b272488994500fd55373ca329fba45906778a422f5854",
        "conj(B2+)":
            "3ab0fcaa7d1988d44f9bc5f1b175a2b69c5b9dc3292e87504e8b3580cf3c2e51",
        "spectrum t_p":
            "c693bf54e88c7cc01156e863369ecb5d59f6cec7a32fe26ed23309203f907f77",
        "star t_p":
            "c5caf225751025c5b6af2bfb5955b32cc8b7f975fa73baf80892fa1fdd7fd2b2",
    },
    "N=32 dark": {
        "A1-":
            "1a5f8cb89f64f5c9d9fa672aeb9ceffee846c52f53731b4870292c9a41b714ef",
        "conj(A1+)":
            "84c31db23283a3837bc452fe7349483186870070ee115731b0fa61b233ba8440",
        "B1-":
            "d8087288d5afd7358d69599370fc319cc0e309a226bf2477e31038620f04a806",
        "conj(B1+)":
            "8f52f158f8d5825f8353b2c1785607cb09c3438faa6c63be12c9b4bd57f791a1",
        "A2-":
            "1fd7214e5e5cd990f5474b0daac13f58b25ce968d68c5b19347abd38e1d27095",
        "conj(A2+)":
            "5b2e5b7a7df8fa171d3f2403afc073849599c1d0f3f5f142d24ea598690d1900",
        "B2-":
            "41665326203d30f824c4f750ffa823625373fb343ac6a0687402a09e42d33361",
        "conj(B2+)":
            "c0df72564393223ca15850dde6a81e1432d34bb17a450ab3aa9286cfabe8aeff",
        "spectrum t_p":
            "5316a0f5ff86c4487980d599b09ea6b7190abd274cb7001ce0d9e6b476e83dba",
        "star t_p":
            "cbb3478d26a36fbf2279954c3d3f3ac97461a9907e7c538fc148553447534d4f",
    },
    "N=32 broken": {
        "A1-":
            "5b0bda19fa498f6c458eb55d0b799311bea1e437dda2df01b907c5272a460f4f",
        "conj(A1+)":
            "4f42a705255b7d13b58795a2a79cd6fe708b09c35254e934636e7ef301dcfbd0",
        "B1-":
            "71426d892fd5c3167a1c8e6d9bd85a48c6a6a7ec49865c5e5039bdfb46727339",
        "conj(B1+)":
            "7c13436d321e8d171973691bb35862048055491ac56156d92b8dea420509a4f2",
        "A2-":
            "1d0344aed0ff5b3e20c28f9bbc993fcc9ea6fbc023de16a17f928dd12406c466",
        "conj(A2+)":
            "c13d4948220d084f2227e21000be3ec0e42ede8c04a759857fd6d103ac017226",
        "B2-":
            "b8e9e7890b8c57dfdff7f0bfa93ee91e960db7385ec2a117ef478380880998bb",
        "conj(B2+)":
            "12c6360df50b6715e211ed676bf19989bd847c5eedb38d9a7631f5741eec5686",
        "spectrum t_p":
            "b6bc3a47653f48943e6e9f2ba61284a12026ec32d96007b7484473febe26f727",
        "star t_p":
            "5501e25f96e1bd153c1c00aa05c3a1285ee487a6334ca14ad4da79a05fab9699",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digests(command: str, out: Path) -> dict[str, str]:
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
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(argv) == 0, command
    wrote = [str(p) for p in out.iterdir()] if lists_files else []
    assert sorted(printed.getvalue().splitlines()) == sorted(wrote), command
    return {p.name: _digest(p.read_bytes()) for p in out.iterdir()}


def test_reference_outputs_keep_their_bytes(split_config, tmp_path,
                                            monkeypatch):
    monkeypatch.chdir(ROOT)
    # Sweeps are serial: the former worker-count variable is ignored.
    monkeypatch.setenv("OMIT_LAB_JOBS", "many")
    produced = {}
    for i, command in enumerate(CLI_PINS):
        produced[command] = _cli_digests(command, tmp_path / str(i))
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


def _solver_digests() -> dict[str, dict[str, str]]:
    produced = {}
    for label in ARRAY_PINS:
        n, chain = label.removeprefix("N=").split()
        produced[label] = _array_digests(int(n), chain)
    return produced


def test_solver_arrays_keep_their_bytes():
    _assert_pinned(ARRAY_PINS.items(), _solver_digests())


# The pins re-made in a child process with one OpenBLAS thread.
ONE_THREAD_COMMANDS = ("omit-lab figure fig3",
                       f"omit-lab spectrum --config {SPLIT}")
_ONE_THREAD_CHILD = """
import json, sys
from pathlib import Path
import test_reference_outputs as pins
out = Path(sys.argv[1])
produced = pins._solver_digests()
for i, command in enumerate(pins.ONE_THREAD_COMMANDS):
    produced[command] = pins._cli_digests(command, out / str(i))
print(json.dumps(produced))
"""


def test_pins_hold_with_one_blas_thread(tmp_path):
    # The spectra make no BLAS call whose bits depend on the thread
    # count, so one OpenBLAS thread gives the pinned bytes.  The variable
    # is read when numpy loads, hence the child process.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                          str(ROOT / "tests")])}
    child = subprocess.run(
        [sys.executable, "-c", _ONE_THREAD_CHILD, str(tmp_path)], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    tables = [*ARRAY_PINS.items(),
              *((command, CLI_PINS[command])
                for command in ONE_THREAD_COMMANDS)]
    _assert_pinned(tables, json.loads(child.stdout))


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
