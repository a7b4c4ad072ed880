"""Golden output: the CLI's bytes, pinned by sha256.

Each command runs in-process through ``chromatile.cli.main``; the
digest covers its stdout, or the file it writes with ``--out``.  A
refactor that keeps behaviour keeps every digest; a deliberate change
to an output format must record the new digests here.

``test_builder_digest`` pins the rectangle builders the same way, over
a sweep of boxes, axis orders, odd axes and core shifts.
"""

import hashlib
from itertools import permutations, product

import pytest

from chromatile.cli import main
from chromatile.grid import Box
from chromatile.rectcolor import _bc1, _blank, color_bc2, color_shifted_core
from reference import admissible_shifts

# input files written as given: generating sets, listing one of v, -v (every
# call passes --symmetrize), and one hand-written coloring document
INPUTS = {
    "genset": "n=1\n1\n2\n",
    "diag": "n=2\n1,0\n0,1\n1,1\n",
    "cube": "n=3\n1,0,0\n0,1,0\n0,0,1\n1,1,1\n",
    # two levels whose k_1 = 2 is not 1, so beta*s has a nontrivial expansion
    "skew": "n=2\n1,0\n1,2\n2,1\n",
    # a torus coloring that wraps along axis 2 only: its stubs on x = 0 print
    # x1="60" at the int end and x2="60.0" at the float end
    "wrap2": "format=chromatile/coloring/v1\nkind=torus\nn=2\nmoduli=3,3\n"
             "palette=c1,c2,1,2,3\nedges=4\n"
             "0,0 ; 1 ; 2\n0,0 ; 2 ; c2\n0,1 ; 2 ; 1\n0,2 ; 2 ; c2\n",
}

# documents that the render cases read, each written by one CLI call first
DOCUMENTS = {
    "torus": ["color-torus", "--moduli", "13,13", "--d", "6", "--mode", "core",
              "--seed", "9", "--out", "{torus}"],
    "rect": ["color-rect", "--sizes", "6,6", "--mode", "core", "--out", "{rect}"],
    "cube3": ["color-torus", "--moduli", "12,13,12", "--d", "6", "--mode", "core",
              "--seed", "4", "--out", "{cube3}"],
}

# (name, argv, output file or None for stdout, sha256)
GOLDEN = [
    ("decompose", ["decompose", "{genset}", "--symmetrize"], None,
     "40db2ffe972c1e4b2161e8d7f47e9026046a73ca118233b1c4c156ace47473b8"),
    ("rect-core", ["color-rect", "--sizes", "6,6", "--mode", "core"], None,
     "cc32ab81d7d62d87d0b848b9cfc431ef4646ddcd29a1b5ba51bb817a841d1ca9"),
    ("torus-core", ["color-torus", "--moduli", "13,13", "--d", "6",
                    "--mode", "core", "--seed", "9"], None,
     "c8d2c520eec15e39fd8476049e7169b180d06ee2e1c6060dfcb06f123c64e724"),
    ("layered", ["layered", "--genset", "{genset}", "--symmetrize",
                 "--moduli", "6277"], None,
     "b60e9a7db1a31c99deccbd563aadceda43ad9ad1675f30f5edbeb7b64900b646"),
    ("lowerbound", ["lowerbound", "--moduli", "3,3", "--search", "chi"], None,
     "0cf124e4ee66312be4964dc5a50cebb016c602826b1c1e6966da4ee8eca7da91"),
    ("layered-out", ["layered", "--genset", "{genset}", "--symmetrize",
                     "--moduli", "6277", "--out", "{out}"], "out",
     "14103fe5e27f7f58213715158f5bbb2a05747c6fc4987382f6c4f9fe516abd05"),
    ("torus-out", ["color-torus", "--moduli", "13,13", "--d", "6",
                   "--mode", "core", "--seed", "9", "--out", "{out}"], "out",
     "c8d2c520eec15e39fd8476049e7169b180d06ee2e1c6060dfcb06f123c64e724"),
    ("rect-shifted", ["color-rect", "--sizes", "10,10", "--mode", "shifted",
                      "--t", "-2,0"], None,
     "5d96f658f87020a61ad095cc647894d28a1f3032e796fd1b0052844e8b4f5e17"),
    ("render", ["render", "--in", "{torus}", "--out", "{out}"], "out",
     "a691941cf072fd477210f7015a3207005f173fdb137e79c77a0141896d1bf93c"),
    # 37 level-1 orbits, shift factors 0 and 1
    ("layered-diag-out", ["layered", "--genset", "{diag}", "--symmetrize",
                          "--moduli", "37,37", "--d-override", "18", "--out", "{out}"], "out",
     "8dd0032cf9605bd2b05ee7ba1189cb87d37c330a187e059dd58b23ca5d105d19"),
    ("layered-cube-out", ["layered", "--genset", "{cube}", "--symmetrize",
                          "--moduli", "19,19,19", "--d-override", "18", "--out", "{out}"], "out",
     "358ef520ae3024a662f3c74495a2deceb893c341d4956abcdf3c054931521ac1"),
    # plain mode with explicit offsets on a torus whose moduli differ
    ("torus-plain-out", ["color-torus", "--moduli", "14,13", "--d", "6", "--mode", "plain",
                         "--offsets", "0,3,5", "--out", "{out}"], "out",
     "f32098f32d9b3fa10e5bf5f5775e911ac2e7f884963f3fa1ecf7042efa9b7021"),
    # a three-dimensional core torus
    ("torus-cube-out", ["color-torus", "--moduli", "12,13,12", "--d", "6", "--mode", "core",
                        "--seed", "4", "--out", "{out}"], "out",
     "f34c40fed0244fa660fba7538be24868fda8e196585fb1616d4a5de53171ada6"),
    ("render-rect", ["render", "--in", "{rect}", "--out", "{out}"], "out",
     "9d19382819b012cb3146e2dc55f4c8bea04ba82c6629bf5b3700917fb10a1684"),
    ("render-slice", ["render", "--in", "{cube3}", "--slice", "3=5", "--out", "{out}"], "out",
     "3e6e26e23107515054f7a225567f0f98accd81d814a234bb047cbf66a0209b10"),
    # free axes 1 and 3 around the pinned axis 2
    ("render-slice2", ["render", "--in", "{cube3}", "--slice", "2=4", "--out", "{out}"], "out",
     "a9c7a8b293a9a55372530b98a804fe5cba80075fd365689d286e4c76886dc7c8"),
    ("render-wrap2", ["render", "--in", "{wrap2}", "--out", "{out}"], "out",
     "ac4e1ec69b9f2582a80893ebd55ea02f8ec04a57772765a39ebff0680dc62279"),
    # perfect matchings, found and none, on the standard set and on +-{1, 2}
    ("matchings-found", ["lowerbound", "--moduli", "4,5", "--search", "matchings"], None,
     "a8402da980983862cadefcf5a7e48391f90ce5ff4c9c0d43b12b773af350fa3b"),
    ("matchings-none", ["lowerbound", "--moduli", "31,31", "--search", "matchings"], None,
     "7d293dc58a0ddf769430e080fecf18584471f8734e80dfdf145f7a41d3e17a00"),
    ("matchings-genset-none", ["lowerbound", "--genset", "{genset}", "--symmetrize",
                               "--moduli", "7", "--search", "matchings"], None,
     "b2537b6aab14051a01711002c677a946411ee677cee2e8dfb9bd0354db2f9c36"),
    ("matchings-genset-found", ["lowerbound", "--genset", "{genset}", "--symmetrize",
                                "--moduli", "6", "--search", "matchings"], None,
     "24237abdc27d8478cf14f522f24ab6f1076a14efd3092e9eb2244757e03f7f57"),
    # the count and the first three witness lines
    ("labelings", ["lowerbound", "--moduli", "4,6", "--search", "labelings"], None,
     "c1a5e0a45542179f91cf4c0f46aa94ec0c0879bcf9006ebd5d85c47a0d4f5ecb"),
    ("labelings-limit", ["lowerbound", "--moduli", "4,6", "--search", "labelings",
                         "--limit", "5"], None,
     "53e00d5e5d11be7925fa7b2c5f963c6567c155656358727efab0310ec151fa91"),
    # 344 labelings on a generating set other than the standard one
    ("labelings-genset", ["lowerbound", "--genset", "{diag}", "--symmetrize",
                          "--moduli", "3,4", "--search", "labelings"], None,
     "779d79da4573530ff776f8697c7811f0ac4289363d0dcf003659c356553a523e"),
    # k_1=2, gamma=12, d=40562
    ("decompose-skew", ["decompose", "{skew}", "--symmetrize"], None,
     "9c54f73efac09f65084badf625a227f2ddf966ad7bfa6eb820450106d75dd6de"),
    ("decompose-cube", ["decompose", "{cube}", "--symmetrize"], None,
     "005e6d1de29ef2d046b9163947e3f4ec45a2a8f85b86b342a1d1658e7b9d5b94"),
]


def _digest(name, argv, target, tmp_path, capsys):
    paths = {key: tmp_path / f"{key}.txt" for key in INPUTS}
    for key, text in INPUTS.items():
        paths[key].write_text(text, encoding="utf-8")
    paths["out"] = tmp_path / f"{name}.out"
    paths.update((key, tmp_path / f"{key}.txt") for key in DOCUMENTS)
    fill = {k: str(p) for k, p in paths.items()}
    for key, make in DOCUMENTS.items():
        if f"{{{key}}}" in argv:
            assert main([a.format(**fill) for a in make]) == 0
    capsys.readouterr()
    assert main([a.format(**fill) for a in argv]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    data = paths[target].read_bytes() if target else stdout
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name,argv,target,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_digest(name, argv, target, expected, tmp_path, capsys):
    assert _digest(name, argv, target, tmp_path, capsys) == expected


# a nonzero origin, so the digest also covers translation into place
ORIGIN = (3, -2, 5)
BUILDER_DIGEST = "ed5f1da47a0a8ec2f7c739d59dd471ec9a20ae5602e0a7ce59a64e23bbb689a5"


def _builder_sweep():
    """Every box with n <= 3 and sides 1..3 under the bc1 builder in every
    axis order and color_bc2 on every odd axis; color_shifted_core for every
    admissible shift of the side-d cube, d in {2, 6, 10, 14} (n <= 2 for
    d = 14, where n = 3 has 125 shifts)."""
    for n in (1, 2, 3):
        for sizes in product(range(1, 4), repeat=n):
            box = Box(ORIGIN[:n], sizes)
            for order in permutations(range(1, n + 1)):
                frame = _blank(box)
                _bc1(frame, box.origin, box.sizes, order)
                yield "bc1", box, order, frame
            for ax in range(1, n + 1):
                if sizes[ax - 1] % 2:
                    yield "bc2", box, ax, color_bc2(box, ax)
        for d in (2, 6, 10, 14):
            if n == 3 and d == 14:
                continue
            box = Box(ORIGIN[:n], (d,) * n)
            for t in admissible_shifts(d, n):
                yield "core", box, t, color_shifted_core(box, t)


def test_builder_digest():
    digest = hashlib.sha256()
    for kind, box, arg, coloring in _builder_sweep():
        digest.update(f"{kind} {box.origin} {box.sizes} {arg}\n".encode())
        for (base, axis), color in sorted(coloring.items()):
            digest.update(f"{base} {axis} {color}\n".encode())
    assert digest.hexdigest() == BUILDER_DIGEST
