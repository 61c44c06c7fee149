"""Golden CLI outputs over tabled odd extension fields, fields without
tables and fields with an explicit modulus.

Each entry is a query, its exit code and the sha256 of the bytes main()
writes for it (the output line plus its newline).  The first 42 queries were
drawn from a seeded generator over GF(3^2), GF(5^2), GF(7^2), GF(3^3) and
GF(13^2): random monic polynomials, structured ones with nontrivial groups,
and isomorphic partners g = f(lam*x + mu) made monic.  The rest compute over
fields of more than 2^16 elements (the base field or the splitting field),
where products go through FieldDesc._mul_slow, or over GF(p, mod=...) with
an explicit modulus, including one that is reducible and refused.  The
digests pin the output bytes, so a change to field arithmetic, to modulus
selection or to root finding that moves any answer, any ordering or any
rendering fails here.
"""

import hashlib

import pytest

from orecalc.cli import run

GOLDEN = [
    (["eigengroup", "--field", "GF(3^2)", "--f", "x^3 + [0,0]*x^2 + [0,2]"],
     0, "3ab54e6cfd00bc55d832a8f1628daac57fdee608cebd31d5ee41b36cd6f09f36"),
    (["eigenform", "--field", "GF(5^2)", "--f", "(x + [4,0])^2 - [2,3]"],
     0, "d6ad65dbf6bd3c3154af1e02b2101df2b0ed964d189ae7cfe0821723c48bb868"),
    (["aut-group", "--field", "GF(7^2)", "--f", "x^4 + [6,1]*x^3 + [6,2]*x"],
     0, "cc6a0914e2ac16fd47bdd90ca51bc01266b6b220296c3f968dff5a316531a131"),
    (["isomorphic", "--field", "GF(3^3)", "--f", "(x + [0,0,0])^2 - [2,1,2]", "--g", "x^2 + [1,1,1]*x + [0,0,1]", "--format", "text"],
     0, "c6c2f42b939cff63fea56678dcc909df96e067a84010e7cc2b5fd07d1a373555"),
    (["centre", "--field", "GF(13^2)", "--f", "x^2 + [9,10]"],
     0, "97882f16fbcefdc7a14c08a925c51e7f30342e12894d58cdd6908c92956e347f"),
    (["spectrum", "--field", "GF(3^2)", "--f", "(x + [0,2])^2 - [1,2]", "--degree-bound", "1"],
     0, "2b10a406a80c46c1dfde63559a17ffb836b09a4dfee165614c286a40d90322a7"),
    (["eigengroup", "--field", "GF(5^2)", "--f", "x^2 + [1,1]*x + [1,2]"],
     0, "9ff0375485a57362758d64ce360d0f95352d9c087d1d2d7ac1c1b403c3b84764"),
    (["eigenform", "--field", "GF(7^2)", "--f", "x^7 - [2,5]*x"],
     0, "a076501182f01155be4089f2774392de48529851d199466e4d2444c6e8e87fa1"),
    (["aut-group", "--field", "GF(3^3)", "--f", "x^4 + [1,2,2]*x^2 + [2,2,1]*x + [1,1,0]"],
     0, "fe5be4a27f51d62edd6dc6483cde0b3d3842d1a1dd59878864188d93a118401a"),
    (["isomorphic", "--field", "GF(13^2)", "--f", "x^13 - [1,8]*x", "--g", "x^13 + [2,8]*x^9 + [9,9]*x^8 + [4,1]*x^6 + [11,5]*x^5 + [6,1]*x^3 + [3,9]*x^2 + [4,2]*x + [11,12]"],
     0, "8da57596626350d68b783a406f5bd9557f86e8a6beb2a7f1a1c07d3363a64098"),
    (["centre", "--field", "GF(3^2)", "--f", "x^3 + [2,1]*x", "--format", "text"],
     0, "0a758dc47b7d7a816db6a7a1a175548a259368be3b890dd846b2577c176ca4dc"),
    (["spectrum", "--field", "GF(5^2)", "--f", "x^5 - [2,3]*x", "--degree-bound", "1"],
     0, "256d4cc63d9e347206893259afcb7b163bb20a3e2b6ed194dd55a50e0a9efd2c"),
    (["eigengroup", "--field", "GF(7^2)", "--f", "x^3"],
     0, "00abc4cb9d9e6754c9f0fc08024cca95e404d86d84f69ed0b4ad02e9893d5c13"),
    (["eigenform", "--field", "GF(3^3)", "--f", "(x + [0,0,0])^4 - 1"],
     0, "ccb5c20afd69bfcd9622aa7727b8c748c6ffb726d05567b00c0722dac83d91ec"),
    (["aut-group", "--field", "GF(13^2)", "--f", "x^3 + [11,4]*x"],
     0, "d7a235b1ec7ab6239ac9250c9c355a2c32660a7319ce6aabace273182819672f"),
    (["isomorphic", "--field", "GF(3^2)", "--f", "(x + [1,2])^4 - 1", "--g", "x^4 + [1,0]"],
     0, "97f7537f89ab8d72de434d03eb218c3f74d114931b0322539a9448a03897b8b8"),
    (["centre", "--field", "GF(5^2)", "--f", "x^3 + [1,2]*x^2 + [2,4]*x"],
     0, "da616f38fbfa79292ebc15900f471f2681f449c438bea58f406a2b354a1b8cf6"),
    (["spectrum", "--field", "GF(7^2)", "--f", "(x + [5,5])^6 - 1", "--degree-bound", "1", "--format", "text"],
     0, "4622a714de4bdaa280d7185c84bab41b26cb0ded8f003ef3b6be3d6168997e06"),
    (["eigengroup", "--field", "GF(3^3)", "--f", "x^3 + [0,1,2]*x^2 + [2,1,1]"],
     0, "793c75b53214a11864d33e553be78f47051f10b7d5d7f7ee389b1b0f9cda7997"),
    (["eigenform", "--field", "GF(13^2)", "--f", "(x^13 - x)*(x + [3,5])"],
     0, "47a93f8af84ef1283ddffc7e2b8accc4271378a624c935b88267f38f0f4b5094"),
    (["aut-group", "--field", "GF(3^2)", "--f", "x^2 + [0,2]*x + [2,0]"],
     0, "71760ba1fbf1563c632b90b6089b13a877a7b0b5a927d3da912694023d2921e8"),
    (["isomorphic", "--field", "GF(5^2)", "--f", "(x^5 - x)*(x + [0,2])", "--g", "x^6 + [0,2]*x^5 + [0,0]*x^4 + [4,0]*x^3 + [2,4]*x + [3,3]"],
     0, "8da57596626350d68b783a406f5bd9557f86e8a6beb2a7f1a1c07d3363a64098"),
    (["centre", "--field", "GF(7^2)", "--f", "x^2 + [0,1]*x + [2,0]"],
     0, "d039579c012fe10e0a16b80862fb49aba3974a37f5f562496df3bf9a0cac31d4"),
    (["spectrum", "--field", "GF(3^3)", "--f", "(x^3 - x)*(x + [1,1,0])", "--degree-bound", "1"],
     0, "5b0163eb51cb93e8b961f039433c73d7f82125494cf6e1e814db0d95ef38da48"),
    (["eigengroup", "--field", "GF(13^2)", "--f", "x^3 + [2,6]*x + [0,11]", "--format", "text"],
     0, "0f8217fbfe49f3681781deb5b9fe6722ca0cb803727161d1ac6637972a5ad11b"),
    (["eigenform", "--field", "GF(3^2)", "--f", "(x + [0,1])^2*(x + [1,0])^2"],
     0, "cba2466edf191c21e26748f9ee09b0e2b2820911f21ad091468672884efbafd6"),
    (["aut-group", "--field", "GF(5^2)", "--f", "x^3 + [0,1]*x"],
     0, "880b8f6ee88e17386956a077fa6c345f71419e1db76dfbca45b43c7b0c647dae"),
    (["isomorphic", "--field", "GF(7^2)", "--f", "(x + [5,6])^2*(x + [2,6])^2", "--g", "x^4 + [5,0]*x^3 + [5,3]*x^2 + [3,4]*x + [0,6]"],
     0, "ee500e43a08d7c9c3654036c304ce931e6fc3943fdb730704becdc1b654cde78"),
    (["centre", "--field", "GF(3^3)", "--f", "x^3"],
     0, "9bf4ccf2c83e5faee620125ee027881596978f6ee375d1523a6dc99e340ab8ff"),
    (["spectrum", "--field", "GF(13^2)", "--f", "(x + [8,7])^2*(x + [1,3])^2", "--degree-bound", "1"],
     0, "5d3ac200ea3f804b5513210669e0d3e4d4ab8ff4f691f0cda7927d8027b8b212"),
    (["eigengroup", "--field", "GF(3^2)", "--f", "x^2 + [1,1]*x"],
     0, "c79dbc983af69b631f2e3fb44af280dc496d5356e9ab29abe1f035602562a5f3"),
    (["eigenform", "--field", "GF(5^2)", "--f", "(x + [1,2])^2 - [1,3]", "--format", "text"],
     0, "24d31d8e9340568450fa228cd15dccb26750dc37fc899c54486b67b0269b8e94"),
    (["aut-group", "--field", "GF(7^2)", "--f", "x^3 + [2,2]*x + [3,4]"],
     0, "cc6a0914e2ac16fd47bdd90ca51bc01266b6b220296c3f968dff5a316531a131"),
    (["isomorphic", "--field", "GF(3^3)", "--f", "(x + [2,1,2])^2 - [0,2,2]", "--g", "x^2 + [2,0,1]"],
     0, "28ed3981549c88872035ddfa362733b66b2e139fc574ff8c360c1ffec620e2a8"),
    (["centre", "--field", "GF(13^2)", "--f", "x^3 + [10,4]*x^2 + [3,2]*x"],
     0, "9ffcceb6b8d060e62a7eb73c0073aa47bc28d8fe19b1f0e1f9e897292c30829b"),
    (["spectrum", "--field", "GF(3^2)", "--f", "(x + [0,0])^2 - [1,1]", "--degree-bound", "1"],
     0, "00656ed64777d7b95aec218f59b39e213c66ebbabeeaa78e0c328328f5fb5c68"),
    (["eigengroup", "--field", "GF(5^2)", "--f", "x^4"],
     0, "640eeb9ba1af33e6665853e1f5b57d296679cbeaeb3a0b967ed2cd922ef9ad62"),
    (["eigenform", "--field", "GF(7^2)", "--f", "x^7 - [1,3]*x"],
     1, "a63221efe8ce86a17f3e6d6ca97dde83d00f50eae038b3de2fb47be6779e47df"),
    (["aut-group", "--field", "GF(3^3)", "--f", "x^2 + [0,1,0]*x + [1,2,1]", "--format", "text"],
     0, "8b8bd8211abacf06659b627815c3b2d7589545f0207b27b724d24edcfbbdd027"),
    (["isomorphic", "--field", "GF(13^2)", "--f", "x^13 - [10,0]*x", "--g", "x^13 + [11,3]*x + [0,5]"],
     0, "3c638f8e599836370976c4a77238376c35a5ea2dbf776001eb743883fb8389c4"),
    (["centre", "--field", "GF(3^2)", "--f", "x^2"],
     0, "d14f05b5a33caf616a8dae48860333affdcf6ab52d4bbfba57ca2a615081528b"),
    (["spectrum", "--field", "GF(5^2)", "--f", "x^5 - [4,4]*x", "--degree-bound", "1"],
     0, "77b4733d0ea01a5c1870f5561da7a5dd457560ce374565634e810b0058fd3c04"),
    # splitting fields and base fields above 2^16 elements, which keep no tables
    (["eigengroup", "--field", "GF(2)", "--f", "x^17+x^3+1"],
     0, "9771f5b073448a23d8e3b562c004546ef3a570a80e034c0a9d08dd8a824a73d7"),
    (["eigengroup", "--field", "GF(2)", "--f", "x^19+x^5+x^2+x+1"],
     0, "fffa9f6058f7ca0c660500bc436478ac1ef7717a050d06f49f54883732092514"),
    (["eigengroup", "--field", "GF(2)", "--f", "x^19-1"],
     0, "ce2536c37fe591b470939580cd8ff943a861a14547ba200005c199a87835bd02"),
    (["eigenform", "--field", "GF(2)", "--f", "x^19-1"],
     0, "b8c820fa87e0b2eabadb13d01934908075d62e6267f3333cef3c9467e8ecdd57"),
    (["eigenform", "--field", "GF(3)", "--f", "x^11+2*x^2+1"],
     0, "47a93f8af84ef1283ddffc7e2b8accc4271378a624c935b88267f38f0f4b5094"),
    (["aut-group", "--field", "GF(13)", "--f", "x^5+x+3"],
     0, "cbf1101afb78928167e244e052d78254b642bc06944bc79d248f13c8dc1c4cfe"),
    (["centre", "--field", "GF(2^18)", "--f", "x^3+1"],
     0, "affa45a161286aa466a96a4960eb80f8907782d0d75897320dd5542e049cf3be"),
    (["eigengroup", "--field", "GF(3^12)", "--f", "x^4 - x"],
     0, "4c70da60fccc85c2d35d1581d73903abe3a0cfb6c3513ef3992f74e61bc3d6fe"),
    (["centre", "--field", "GF(5^8)", "--f", "x^2 + [1,2,3,4,0,1,2,3]*x"],
     0, "075a430cae56a0249d3295986360626af4f7f6a995e676f443ebf9366a73aee4"),
    (["centre", "--field", "GF(13^5)", "--f", "x^2 + [1,2,3,4,5]*x", "--format", "text"],
     0, "adb3d13f810e4b8eebd4d7589e5ffa03d42bb02a8ad3ff3c733b7dcbf729ec75"),
    # explicit moduli, and the refusal of a reducible one
    (["eigengroup", "--field", "GF(9, mod=2,2,1)", "--f", "x^3 + [1,1]*x"],
     0, "01639b092e0f91ed809a11e3d4eba2ce235e14dc0e6360ed5a2660f385aec84f"),
    (["aut-group", "--field", "GF(9, mod=2,2,1)", "--f", "x^2 + [0,1]*x"],
     0, "82cc78767502796e6f4fc0c5abc0a2a78d5ef2e420ff4ecc94ae3c2740f30df6"),
    (["isomorphic", "--field", "GF(8, mod=1,0,1,1)", "--f", "x^3 + [0,1,0]", "--g", "x^3 + [1,1,0]*x^2 + [1,0,1]*x + 1"],
     0, "9a62af41b12ac77bf475f946dedd74e3b813a8358a7a00fbbbece3765c46e555"),
    (["centre", "--field", "GF(25, mod=2,0,1)", "--f", "x^3 + [1,1]", "--format", "text"],
     0, "38b8efe7bcc33ccd760557b530c44b869422d44ba02a1981452d1b5b41a301c5"),
    (["eigengroup", "--field", "GF(4, mod=1,0,1)", "--f", "x^2"],
     1, "bfc8c9ac548e581c31a082d06d08333c39189d98ee69be3802ccf4c3aac4f6ac"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[f"{i}-{q[0][0]}" for i, q in enumerate(GOLDEN)])
def test_cli_output_is_byte_identical(argv, code, digest):
    got_code, out = run(argv)
    assert got_code == code, out
    assert hashlib.sha256((out + "\n").encode()).hexdigest() == digest, out
