"""Golden output tree: the five stages on the shared test corpora write fixed bytes.

Criterion 08 compares two runs of the same code, so it cannot see a byte
change that a refactor brings in. This test compares every output file
with SHA-256 digests recorded from an earlier version of the pipeline
(x86-64 Linux, Python 3.11, numpy 2.4). The profile embeddings are float
sums, so a platform whose numpy rounds them differently fails here even
when criterion 08 passes. A change that alters the output on purpose
updates the map and says so in CHANGES.md.

The second map is of a tree whose CoNLL, JSON-lines and text corpora mix
case, punctuation, units of punctuation alone, ``_`` and digit tokens and
non-ASCII words, so it pins the tokenizer's ASCII and non-ASCII paths and
profile keys outside ASCII.
"""

from __future__ import annotations

import pytest
from conftest import run_full_pipeline, tree_digests, write_mixed_text_tree, write_pipeline_tree

GOLDEN = {
    "cache/profile-news.json": "ad4ba81fe77cbb0df88207c9200cd14494504e19d21fdd2623ec2d387f81a7aa",
    "cache/profile-science.json": "b3684d2ba3ec9dfafe0a25c10248e6148fe8f898dd1085293958ea7713ff210d",
    "cache/profile-social.json": "96abd3d222911e186677022a7b94c72b9e942308b13fc6892c343581a5bff030",
    "cache/profile-src.json": "95f35c0437ae053827eff0e5d4e0c875b6a703bfa7767e47f72261ff7ff768e8",
    "cache/stage-fit.json": "644306fd5372a9c64fb57f89fec6316d8cba14037e689bb2eb980fe1a40a0b90",
    "cache/stage-ingest.json": "6a9ac95d6a9f265a1ca17dfd3309d2cd830fbbf1efde282b261dec60b83f6d1d",
    "cache/stage-report.json": "9bb7f6730a76f43b9718615c62f3f37bcd36e98f32f9757148619e500424f73b",
    "cache/stage-similarity.json": "bcd95a66a754d06f2b05bcee9a4692cb9acd37e797c08051a568459ee7cbbf75",
    "cache/stage-transport.json": "3a324a1a68f7faea2fb48e1981c6cbc32bac01f0daf694797aa33fc3c90933d9",
    "curve-alpha-sys-cosine.csv": "5fff5158cadfce06565c3b2de18ca2a4cc25fbcba57e7dbce610a4f1cc21a45b",
    "curve-alpha-sys-kl.csv": "e6f61e9ddf3a202bd5efcb37b2298f2c372dbb82b5e3b806e7b48321172acab9",
    "curve-alpha-sys-lexical.csv": "0828a0156eb69a314170b472144f3e0e6ae0e3785d0e79d53986058bc54826cc",
    "curve-beta-sys-cosine.csv": "7367b67259c36a5125760ee127f844de242bc4b6965432d7281c0f1c3ffc8b32",
    "curve-beta-sys-kl.csv": "91e57ee0e0444a5e31b966047733a68fcd32e4c49831f2ae16a3c1a04366710b",
    "curve-beta-sys-lexical.csv": "5bce1d70918dd167df35c90ae0c26a5374f21c568029f0befde8bab727f16710",
    "fit-alpha-sys-cosine.json": "71496b3b9b0e1812b12dca0f4418092313dbf5d6ec9ed14887309b00e9c0925b",
    "fit-alpha-sys-kl.json": "61dc53b85b4da980b13a403da0334710b041157e3adb4c2717dd1e700265a146",
    "fit-alpha-sys-lexical.json": "484ba1ba6ee0c8fdae3f29ad170ff05526af13566773d7d3481d310d61394961",
    "fit-beta-sys-cosine.json": "f0c5f6f3b87f1fd1a68652734ad59c6d875134e81a65150f11bb60a2142100e7",
    "fit-beta-sys-kl.json": "1664bbbb2e97598d132dc4742aa3ab325c2d447b93948eebc1bf20ed8101a79a",
    "fit-beta-sys-lexical.json": "c08fa74f77d401d0014debd8684a2323a3a7456a6d131f6fb64dc8e9ad8bba77",
    "fit_summary.json": "d6ff506db5ea7a490fefaa3ea464724f42b010006769ba81fb0264f80297cd18",
    "plot-cosine.csv": "c89bfb3f71c3d34823536ecd5b8d9d7202b027a12aa8437cda880b31dbacc167",
    "plot-kl.csv": "a08dc04131b971b684fc9e32fa84a8a76aeffc168e69b4dc438a5ae371ede9a3",
    "plot-lexical.csv": "34053a58b423657971a8a65b1464289615d43a667139c4161d7dbf272dadfe84",
    "report.json": "81d58952b254288161a4fe7f0ac0792fed4ffac68866021fee59470b4ddb15d2",
    "report.txt": "b48a5ff510ac6e5ca0c22b12ae0b0c0a0cd531f396bbfcf260f75a1715dae631",
    "similarity.csv": "23602b0269e5d553dd77864cf7f7f052f74a0571bcd6a17e30d2ee826d33c793",
    "similarity.json": "80865ed8f4e8f3c315f05d917bd1345cce3753b6df99de78445d61b1ca2e653a",
    "transport.json": "24b5df1f13ae897358e04ff850a4f6e8fef6fc82783912e9b3f00cccc4400455",
    "transport.txt": "7b36ab68dac3d80b948f11b27f2c542cb6a32393bcebf6cdf75c7ac8eea6c41a",
}

GOLDEN_MIXED = {
    "cache/profile-news.json": "04bb72287f52ac495bdbc2b8fe1285d628c953e0ff28a7d9e819d20e47abc142",
    "cache/profile-science.json": "91bb7063f4bb659a35326d9c8a4840c220773a19098a98f54fd82efd4b614cba",
    "cache/profile-social.json": "871963c02bd1adb1d89b85001ceb7415bc9de518e122e4e42bd972e343766079",
    "cache/profile-src.json": "8352d921c7a5363bd12430417b33e7d544f839a7044d31b795db68a25598ab10",
    "cache/stage-fit.json": "00d3d98618e88a9f8e4678ef2cbfc486e221bcda3b91e476067623bd1e54be87",
    "cache/stage-ingest.json": "e9fc9ab6055acd186cca89dcd69e1ecf82c014d144b03b6d5d7e7edfde8140af",
    "cache/stage-report.json": "b3efe3a60ea3b2e0cfe0e10123b874faa61733360abc31add1b920a47dfdbc30",
    "cache/stage-similarity.json": "8fd4d002018e8f6c9b76f01474e1010e4603a0fda91ada682826ec54ffece62f",
    "cache/stage-transport.json": "3a324a1a68f7faea2fb48e1981c6cbc32bac01f0daf694797aa33fc3c90933d9",
    "curve-alpha-sys-cosine.csv": "26aedc6c085d3a192a2033773bd78e9c272550427cb99712447b2fe0dbaf2180",
    "curve-alpha-sys-kl.csv": "2f87097e2dd06b9c51fede19466438c23460beb0364616a13fa6e365100cfd1e",
    "curve-alpha-sys-lexical.csv": "112a073c2e021a3b7a15b8959c1e534b09ea8637948587f49359d8ca1f7ab704",
    "curve-beta-sys-cosine.csv": "05388b58b8d097e06e0ab805e6f8e38446e400167841f521be3d576f8d0d2e36",
    "curve-beta-sys-kl.csv": "fc9458fda211a959738e00678296ea5edf885a03c101aaea0901e966dd95110b",
    "curve-beta-sys-lexical.csv": "2b53b2c1acd442f1d1314986cbcfe8d76e6fb8b2004e0628ac7582ceb8f2e274",
    "fit-alpha-sys-cosine.json": "e916a36269107727d06c68c22ff2a6ee28ad3b51f456e8ee71a9956c5ecd8213",
    "fit-alpha-sys-kl.json": "8c187b0134a86ebe550a132458b1553493c103d2d8ccddd8ff0d43f82b692f80",
    "fit-alpha-sys-lexical.json": "16d09b018324ba7fa2d426b39b4edebe1b535f3e4df403a451d52a647063bbdf",
    "fit-beta-sys-cosine.json": "bf920b433e829cf01c7bfcd9ec1434e42ed4bac45a5263143c08bf0bad502abd",
    "fit-beta-sys-kl.json": "15e571a842c37efe67b81143fea388e0721635702ad0673dc7697a1198704a25",
    "fit-beta-sys-lexical.json": "3e8389a583e80f45c876cc0ebbe9497b2a0508e784db231d857e43aab67fa415",
    "fit_summary.json": "2ffad33697a2c390c12825535548bb6d393f42f33cb1074c801091f54890dc94",
    "plot-cosine.csv": "3686a153b3bac4e300a181da38d7a296d8ea923e3d53237cc3a94a5146eef0ae",
    "plot-kl.csv": "a703ec9d66e46b8963d09b30917aa12d16be57e8b30678dc510e376d5fbf84d5",
    "plot-lexical.csv": "751e016d736bd32f15743cd919fe7e987557399a1e3c3c279c2a3fb5d7156871",
    "report.json": "73b089e3d63ea094989e3c5897c822fd9a99bf696257c5bea0b331ef2f6539e3",
    "report.txt": "3955d2f2c210b5bad3516e383984ef7ecb3dd870600feb11898f4b445c4b2593",
    "similarity.csv": "8a2999f84fc02a2546401ff9f12dab7b4c0ea63eca18ef2c997a5640663f7d66",
    "similarity.json": "90ccf2f6549d56f85ed50dc07d6dfe5131956e9907e6d0925d898b98d2f6db27",
    "transport.json": "24b5df1f13ae897358e04ff850a4f6e8fef6fc82783912e9b3f00cccc4400455",
    "transport.txt": "7b36ab68dac3d80b948f11b27f2c542cb6a32393bcebf6cdf75c7ac8eea6c41a",
}


@pytest.mark.parametrize(("write_tree", "golden"), [(write_pipeline_tree, GOLDEN), (write_mixed_text_tree, GOLDEN_MIXED)],
                         ids=["lowercase-ascii", "mixed-text"])
def test_output_tree_matches_the_golden_digests(tmp_path, write_tree, golden):
    run_full_pipeline(write_tree(tmp_path))
    got = tree_digests(tmp_path / "out")
    assert sorted(got) == sorted(golden)
    assert {name: digest for name, digest in got.items() if digest != golden[name]} == {}
