"""Pinned SHA-256 digests of certificates and reports on fixed seeds.

A refactor of the decision or the reductions must leave every certificate
byte-identical; these digests were recorded before such refactors and must
only change together with a documented change of output.  The canonical form
is compact, key-sorted JSON.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from quatnil import jsonio
from quatnil.classify import classify, is_sum_of_two_nilpotents
from quatnil.decompose import (
    decompose_two_nilpotents,
    diag_zero_form,
    field_diag_zero,
    verify_certificate,
    verify_decomposition,
)
from quatnil.gen import InstanceSpec, generate, two_square_zero_sum
from quatnil.qcore import AlgebraParams
from quatnil.qlinalg import QMatrix, conjugate_by

HAMILTON = (-1, -1)
OTHER = (-1, -7)
THIRD = (2, -5)


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _instance(ab, n, kind, seed, **kw):
    alg = AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))
    if kind == "two-square-zero":
        return two_square_zero_sum(random.Random(seed), alg, n, 2)
    if "rep" in kw:
        kw["rep"] = alg.quat(*kw["rep"])
    return generate(InstanceSpec(alg, n, kind, seed=seed, **kw))


# (algebra, n, kind, seed) -> digest of decomposition_to_json
DECOMPOSITIONS = {
    # the root of the decision's M*M comes from the conic descent, which
    # replaced the three-squares construction over (-1,-1)
    (HAMILTON, 2, "two-square-zero", 11):
        "fd0513833b1e1a22b8817daecc29eccfe0a5281652e745b2493bbc924dca8160",
    (HAMILTON, 2, "type-II", 12):
        "57e52046be931af9179ba89f69c19a09f1a12766725487f47a7d41484839ed3b",
    (HAMILTON, 3, "generic-trace-zero", 13):
        "a399467b18b6e9104e9aa4ce81815e561fbb7ad3f7a0c31c9ff8719b2e4139da",
    # the witness is now the closed-form type-II basis, which conjugates M to
    # lam*(I - J) in place of the rational-field recursion (here and at seeds
    # 16, 18, 22, 24, 28 and 30)
    (HAMILTON, 3, "type-II", 14):
        "7c3370827e90b7f2781f398bf821813e610c4abc767639eb20797b58e2d4b37b",
    # a generic matrix at n >= 4 is reduced in one companion basis, which
    # replaced the corner-and-perturbation recursion (here and at seeds 17, 23, 27)
    (HAMILTON, 4, "generic-trace-zero", 15):
        "72027564375c9efefb10d9db98e98ff746a8ee4e261b3210c354de6e7ff0cd4b",
    (HAMILTON, 4, "type-II", 16):
        "893de3deb22bea70d1b3bc60dada1ed9975fbed8a38d5ccf2e50ea846e3b57a4",
    (HAMILTON, 5, "generic-trace-zero", 17):
        "19b6424fd5c8a357fd9b708cae7747813bad8de9d7d1c047a7b998c7eb4aa97f",
    (HAMILTON, 5, "type-II", 18):
        "26e256431a4c806cdc9d808b3c52e8b7e02bce69c7785af690732df7ce9f0b12",
    (OTHER, 3, "generic-trace-zero", 21):
        "86cb1d9009582b3272ae557a8f12678452e04a15a40b7edace186b0c9ae89f9f",
    (OTHER, 3, "type-II", 22):
        "4f09e51c13e00c41bffa38cafd2ea0d6c135f5043dc20e53092b1b17176bfcaa",
    (OTHER, 4, "generic-trace-zero", 23):
        "b58281708c1611c0421cab35ff9d1061b3cdebac2d41ce3ff4cb3f9aa3450efb",
    (OTHER, 4, "type-II", 24):
        "f4296379ae4c8b8982596fdc0e012fa1fefc43138b2b7d0ab56e8d62bfc89f94",
    # the root of the decision's M*M comes from the conic descent; the shell
    # search it replaced ran out of height here
    (OTHER, 2, "two-square-zero", 25):
        "b9706d6a0f6f39877ab5a6adfa681a4f9be0502cb4faaa0542ae14faafdf585b",
    (OTHER, 2, "type-II", 26):
        "44ba4be29252c25d9733e641f8b127e78327a0e04c617fa790ea6b05c4423cc6",
    (OTHER, 5, "generic-trace-zero", 27):
        "a84823dab4c2bbd884a43f5409fbce81e033a854b97f854d740b3b14317e7731",
    (OTHER, 5, "type-II", 28):
        "df4e28af3325a06fc72dc9e2d6f5b7a2e6d891be73a52a7b4d3e6b7cb3c074b4",
    (THIRD, 3, "generic-trace-zero", 29):
        "ee0bfa0e0176deb1bf7547de14bae204c2f75927e4bc8c6d55a1dbaf7f18a12d",
    (THIRD, 3, "type-II", 30):
        "2cfff8d23288007eba5668345b6df845dac0a0be27702055834f4e5f2b131e20",
}


@pytest.mark.parametrize("key", list(DECOMPOSITIONS), ids=lambda k: f"{k[0]}-n{k[1]}-{k[2]}")
def test_decomposition_digest(key):
    ab, n, kind, seed = key
    # type II with lam = 1 and the default image eigenvalue -n: zero supertrace
    extra = {"lam": Fraction(1)} if kind == "type-II" else {}
    m = _instance(ab, n, kind, seed, **extra)
    assert is_sum_of_two_nilpotents(m).answer
    dec = decompose_two_nilpotents(m)
    assert _digest(jsonio.decomposition_to_json(dec)) == DECOMPOSITIONS[key]
    # the certificate check and the witness-free check agree
    assert verify_certificate(m, dec.n1, dec.n2, dec.witness)
    assert verify_decomposition(m, dec.n1, dec.n2)


def _structured(ab, label):
    """Diag(...) of 1, -1, i and j, or a 2x2 block (+) the zero matrix for a label "<block>+0-n<n>"."""
    alg = AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))
    one, i, j, _ = alg.basis()
    z = alg.zero()
    if label.startswith("Diag("):
        names = {"1": one, "-1": -one, "i": i, "j": j}
        return QMatrix.diagonal([names[s] for s in label[5:-1].split(",")])
    block, n = label.rsplit("+0-n", 1)
    top = {"J2(i)": [[i, one], [z, i]], "[[i,1],[0,j]]": [[i, one], [z, j]], "[[0,1],[i,0]]": [[z, one], [i, z]]}[block]
    pad = int(n) - 2
    return QMatrix([row + [z] * pad for row in top] + [[z] * int(n) for _ in range(pad)])


# (algebra, label) -> digest of decomposition_to_json for derogatory (no
# cyclic vector) and n = 3 matrices, whose reductions must not move when the
# generic path changes; the n = 2 labels take the candidates p1 + p2,
# p1 + p2*i, p1 + p2*j and p1 of the square's eigenbasis (p1, p2)
STRUCTURED = {
    (HAMILTON, "Diag(1,-1)"): "27cfa31b1b7026fcc963b9e1630ea6a423ed5ea08cdb15b5d4656705428d6cb5",
    (HAMILTON, "Diag(j,j)"): "9d88dd1d4a1398362815f329f70001d61c15026c60c041bf5c18466c0f73241d",
    (HAMILTON, "Diag(i,i)"): "85022755e89118b3f4efc43e180cf7eb741b51940b370c156635dd08080f9af7",
    (HAMILTON, "[[0,1],[i,0]]+0-n2"): "8514b91df7bdc7e1cba042104682af7caf6648736d4c38298e77b3cf2dde8822",
    (OTHER, "Diag(1,-1)"): "c61aad300c5fea7276048cc216e7e476afdd44a586efe28eab2a780d2cf2583d",
    (OTHER, "Diag(j,j)"): "9d0f8c8e6bf2bdfa084affff8552438c186e55d3a92ff1922e83004dbfedf5a2",
    (OTHER, "Diag(i,i)"): "45f928f73e9962416ee14feae74fe75f25161f9ddf67cacde882d03ee54076b4",
    (OTHER, "[[0,1],[i,0]]+0-n2"): "11a0ce64e019adbdbe4a9329822aa4733460152facaab46b3432b85e6b56653a",
    (HAMILTON, "J2(i)+0-n4"): "d526d77892e8df86e05d4cb06ea4cf13ac7e9f8371e4b750f34fd0f8a9405727",
    (HAMILTON, "J2(i)+0-n5"): "f33560241d3e15faa3252a67180501d2019c218438714823bd6e04288575a74c",
    (HAMILTON, "[[i,1],[0,j]]+0-n3"): "b4699824f4e620ceefa8bada0239193549a118a6cb31cd61d50e5cbfa3b6be3c",
    (HAMILTON, "[[i,1],[0,j]]+0-n5"): "ba1d17156ce749f1954f802070fe6c1d701de5aa6addc63480e8ad7d7e50fd5f",
    (HAMILTON, "[[0,1],[i,0]]+0-n3"): "1a8aa39fc0695643b4ab92db86dbc30f6917380d8cc0c5bf8be8a26a84b691df",
    (HAMILTON, "Diag(1,1,-1,-1)"): "058daa3ed991685db798ffc6960168f3555edd1fa439c41ec702452bc3029196",
    (HAMILTON, "Diag(1,1,1,-1,-1,-1)"): "e5193ca4300ac6257da9dbc540597bf4edf3a05637847272a7c9317bcfee6c23",
    (OTHER, "J2(i)+0-n4"): "4bc38d8737731c44512466ed2e85f358dee7539f9bd3ea0f38dfe997f919d78b",
    (OTHER, "J2(i)+0-n5"): "9c5ab9193117deae8dcdb00e347e2f73d45880e7640fa143dd00d950fba11587",
    (OTHER, "[[i,1],[0,j]]+0-n3"): "fce1bca1d7ce56fc0c2c2a6c98831db3721eb158d38de6bc44464361e7590984",
    (OTHER, "[[i,1],[0,j]]+0-n5"): "36bfed21f59421d4d1680381b4dd9e03230640ef1e122e568a718e90a3896018",
    (OTHER, "[[0,1],[i,0]]+0-n3"): "74513c6088adf3e7df7d60d29391724f018a29ae471d118a0a1a56a7614f64bf",
    (OTHER, "Diag(1,1,-1,-1)"): "015185e45b6ceb2e079f988e267578de0b521eab44ec73d3e2ccb03a73d100da",
    (OTHER, "Diag(1,1,1,-1,-1,-1)"): "030b483949dcb1dfec70bd29cba0d0d78e331ff7dc72ba613b165f68494c69eb",
}


@pytest.mark.parametrize("key", list(STRUCTURED), ids=lambda k: f"{k[0]}-{k[1]}")
def test_structured_decomposition_digest(key):
    m = _structured(*key)
    dec = decompose_two_nilpotents(m)
    assert _digest(jsonio.decomposition_to_json(dec)) == STRUCTURED[key]
    assert verify_certificate(m, dec.n1, dec.n2, dec.witness)


# label -> (instance, digest of decision_to_json, digest of classification_to_json);
# an instance is a generator tuple or an (algebra, structured label) pair
REFUSALS = {
    # [[i, 1], [0, i]]: its square -I + 2i*E_12 is not diagonalizable
    "n2-spectral-obstruction": (
        (HAMILTON, "J2(i)+0-n2"),
        "b4c623414277096d8fbbc15263a5dca74d642999953ee90e4a9447b710fc91cb",
        "c5f6bd5f172a699622584ddf85e5862d87a8f2c9d7c5bf299ec696621df5e22f",
    ),
    "type-I": (
        (HAMILTON, 3, "type-I", 31, {"lam": Fraction(2)}),
        "de84be797ef6fc5a2dc4c6a3f2542a12c679c14f731c93ce04560a907551655e",
        "a9912fa2965d1331d4757d2a21d05dbc17488e69308d200bc428e37a0c5c9c96",
    ),
    "type-II-nonzero": (
        (HAMILTON, 4, "type-II", 32, {"lam": Fraction(1), "rep": (-3, 1, 0, 0)}),
        "c03861abfb3b1fb1a49c8a0e987f87e656d1c28eb17bc4912646b51bcebe44f7",
        "354b4db9f1e0685f8491b2508c85d2ccfad6e5c35af12903be33d4febcda6ca4",
    ),
    # the eigenvalue 2 - i + 2j - k takes its pure part from the conic descent
    "type-III": (
        (OTHER, 3, "type-III", 33, {}),
        "26913f4d2af0438d1be22fe77766d76864eb8332ca4fe92204468abda1cdb471",
        "1bc0ad1caab25dc8d31b128d4387b98e7428fdfbcc49b95e4a806042fd8e0fa3",
    ),
}


@pytest.mark.parametrize("label", list(REFUSALS))
def test_refusal_digests(label):
    instance, want_decision, want_classification = REFUSALS[label]
    if len(instance) == 2:
        m = _structured(*instance)
    else:
        ab, n, kind, seed, extra = instance
        m = _instance(ab, n, kind, seed, **dict(extra))
    decision = is_sum_of_two_nilpotents(m)
    assert not decision.answer
    assert _digest(jsonio.decision_to_json(decision)) == want_decision
    assert _digest(jsonio.classification_to_json(classify(m))) == want_classification


def _witness_digests(w) -> tuple[str, str]:
    return _digest(jsonio.matrix_to_json(w.P)), _digest(jsonio.matrix_to_json(w.Pinv))


def _field_matrix(ab, label):
    """Rational trace-zero matrix: Diag(...), the shift "shift-n<n>", or "rand-n<n>-s<seed>".

    A seeded draw takes entries in -3..3 and fixes the trace with the last
    diagonal entry.
    """
    alg = AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))
    if label.startswith("Diag("):
        return QMatrix.diagonal([alg.scalar(Fraction(v)) for v in label[5:-1].split(",")])
    kind, n, *seed = label.split("-")
    n = int(n[1:])
    if kind == "shift":
        return QMatrix([[alg.scalar(int(s == t + 1)) for t in range(n)] for s in range(n)])
    rng = random.Random(int(seed[0][1:]))
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    rows[n - 1][n - 1] -= sum(rows[s][s] for s in range(n))
    return QMatrix([[alg.scalar(v) for v in row] for row in rows])


# (algebra, label) -> digests of P and Pinv from field_diag_zero, recorded
# before its recursion was rewritten to build one basis; the Diag and zero
# labels are derogatory, the shift and the seeded draws cyclic
FIELD = {
    (HAMILTON, "Diag(1,-1)"): (
        "815b9a1c05b78074089498f734d3ea4b964750ae64e9dada73c163a014322e2e",
        "b032ae1608477ece65d2660320cc23b1c56935dc374711b5bd0c7000f29d74f8",
    ),
    (HAMILTON, "rand-n2-s1"): (
        "1e693f196fe3ec4a335b4dfba86929882cac836c0c39b98e1319deedd562cb23",
        "6e840766283b7cded23411adfee3d9652e5837f633205226247c7eb8560e121d",
    ),
    (HAMILTON, "Diag(2,-1,-1)"): (
        "3bbfec7a1b369cc961558490880bc18b7cc3cad6141d7399a08cad9ba8a35df3",
        "bf17c216cbaf1fb19b129b95aaae48425d84f939a5581fe6560e04781369e422",
    ),
    (HAMILTON, "rand-n3-s2"): (
        "b87a588ceff18ce8bf1a842b8ea92c0fa17edf283a597bd0cfb9a408c99f5d71",
        "a3d5fc306a5fc84d01fc8a449e7fc44180f54f7d65ae378ee171a010b914da0d",
    ),
    (HAMILTON, "Diag(1,1,-1,-1)"): (
        "f251f9bbdefe064aefbe1206e0fae0772d577d4cde0052864ca0371643e60bda",
        "05f0a23e23342d39b4e0560daf10b2e0768b7038a821dc0b194d1631cd138953",
    ),
    (HAMILTON, "shift-n4"): (
        "3bcf9a1f35c8cdbebd31e3737c6fd147b808440f68c7f5e237deaa8087534c0c",
        "3bcf9a1f35c8cdbebd31e3737c6fd147b808440f68c7f5e237deaa8087534c0c",
    ),
    (HAMILTON, "rand-n4-s3"): (
        "3c470222bcee855993d31ba6afe8eb2384f19a65d544c40d168e6bce18dbbdc9",
        "8a6fb2cd37f3e4f35aee6827e50e958c98e5032e6df787657917cfea319ca7a6",
    ),
    (OTHER, "rand-n4-s4"): (
        "5232f1dbaa80d6800f0866ee8a821bbadd65a2a26e3dbad63dd3b29267f25df4",
        "17e06a090e864d4369382198422d921195bd8cc4c6ba881ee8acc3da50fd1e46",
    ),
    (HAMILTON, "Diag(0,0,0,0,0)"): (
        "a08e39e2b4f5d6c980bf2eee9778ccc1673de0a5f45ac0ab1d403dfd5c5f09e1",
        "a08e39e2b4f5d6c980bf2eee9778ccc1673de0a5f45ac0ab1d403dfd5c5f09e1",
    ),
    (HAMILTON, "rand-n5-s5"): (
        "1946749712db875ea5b6a903fcc6923e5475b2906902cc297d7b3dbafbf3e8b3",
        "2dfc551f8937e20da303c2078ee509ebe1e5fcc25e83627228b7592ce3a4a29d",
    ),
    (HAMILTON, "Diag(1,1,1,-1,-1,-1)"): (
        "ba2c3e3d3b7aaa31982829d54f9ea1d12b2516a2a93c3bd39f9ab8e79e4eaa5c",
        "0e6f3deb343b52969f97d7adb11ef93ece2c607eda073f5ca255309449eb5b9a",
    ),
    (HAMILTON, "rand-n6-s6"): (
        "d99167b06d55811e9af87099b42d59a4a793bcb32debacce87f2191e3a2317e3",
        "9744f870839802b2a8cfd53e773fec1fbcfd48af5e861918b0a71185034576b9",
    ),
}


@pytest.mark.parametrize("key", list(FIELD), ids=lambda k: f"{k[0]}-{k[1]}")
def test_field_diag_zero_digest(key):
    m = _field_matrix(*key)
    w = field_diag_zero(m)
    assert _witness_digests(w) == FIELD[key]
    assert conjugate_by(m, w).has_zero_diagonal()


def _diag_zero_input(ab, kind, n, seed):
    if kind == "derogatory":
        return _structured(ab, f"J2(i)+0-n{n}")
    extra = {"lam": Fraction(1)} if kind == "type-II" else {}
    return _instance(ab, n, kind, seed, **extra)


# (algebra, kind, n, seed) -> digests of P and Pinv from diag_zero_form,
# recorded before the reductions were rewritten to build one basis each;
# "derogatory" is J2(i) (+) 0, which no seed draws
DIAG_ZERO = {
    (HAMILTON, "two-square-zero", 2, 41): (
        "66620e081bb330b0bf2cc125b9e0ec3f0c1d5de1d57ee7149e8d000701460307",
        "e374762d24e48af15ad5343b29c409fbff7cb28ef19ff6c9e05f7b0cbe90be6c",
    ),
    (HAMILTON, "type-II", 4, 42): (
        "14a4a907a00aacfd241b428fc5db2d7c3574a5ad9905f8643f1dfe8ac75f4773",
        "bc5673a9f80db2862491adb23c79b6797e99e22046dc48c89611b85b99785677",
    ),
    (HAMILTON, "generic-trace-zero", 5, 43): (
        "4da943552f079933d6702e8be6850a3bc611da386314d98f516972be2526b73e",
        "cc22beccfb946c54545d947d0a11c772e8616071afc49bc997528bd55a630a1c",
    ),
    (HAMILTON, "derogatory", 4, 0): (
        "1ccc6981940ac0065c2dde7cffbb4617830467442025b9fafce4d6ba4eca94c3",
        "272e23360ad5f8c439c28921fdc1afcbeeaaf14f848aa99be2e30066ee5cb406",
    ),
    (OTHER, "two-square-zero", 2, 51): (
        "bcd0227ce6240e6ced20d6e7d9dbeadd6bf6188376bd1051c41ad94b0bd9c526",
        "0d8faaab593361e30fe4ce2bc7abfb661d2365b01ae7e75f60c6cf5f8937b50a",
    ),
    (OTHER, "type-II", 4, 52): (
        "0f221c67952e4f2685786c8403e0a8f3ae65924cbbb97635451b858d5374f45b",
        "3bdfa4d6fcac88af0a9aebd46fd283d34e4014c5fb87188acab5c7d3f6c7405b",
    ),
    (OTHER, "generic-trace-zero", 5, 53): (
        "97c71e29ba38f0ecdbae475bba6d9b05daa018d4ffcd57f8e58c72868dea3398",
        "f3779ea0d6bcd3a923b0dcbedd46c6cb2025ddbb83045b8fb7533ab76f9fa74b",
    ),
    (OTHER, "derogatory", 4, 0): (
        "d51f6d852071dbd8824ea00a2798006f48c617180b728bc37af3b22cf84eb45f",
        "b8a1a37092ea45874dac6c0764e5ef824d1b103629986b0e5718459958eb4876",
    ),
}


@pytest.mark.parametrize("key", list(DIAG_ZERO), ids=lambda k: f"{k[0]}-{k[1]}-n{k[2]}")
def test_diag_zero_form_digest(key):
    m = _diag_zero_input(*key)
    w = diag_zero_form(m)
    assert _witness_digests(w) == DIAG_ZERO[key]
    assert conjugate_by(m, w).has_zero_diagonal()
