"""Golden output tree: the five stages on the shared test corpora write fixed bytes.

Criterion 08 compares two runs of the same code, so it cannot see a byte
change that a refactor brings in. This test compares every output file
with SHA-256 digests recorded from an earlier version of the pipeline
(x86-64 Linux, Python 3.11, numpy 2.4). The profile embeddings are float
sums, so a platform whose numpy rounds them differently fails here even
when criterion 08 passes. A change that alters the output on purpose
updates the map and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

from conftest import run_full_pipeline, write_pipeline_tree

GOLDEN = {
    "cache/manifest.json": "9cbe6bc76a462bddd72470c31dea661e49ce03fc1e343d1814f0384d412c8b4b",
    "cache/profile-news.json": "b32a98c342b090fabd910859f043a48c3275825bd40ff2641ba961492f84c646",
    "cache/profile-science.json": "069e204f14d59c0ea1f62e119dabad720f5bf911d0b80ee44a9e2db8c1b9c76c",
    "cache/profile-social.json": "3938eb67239326ccbfa13bdc6aeda1058e45d695f0718f25fa375268da3bbf34",
    "cache/profile-src.json": "58e216b79563bb006c2fa809b41195b65ee9b0fdd0a42433f93f00551a369c9e",
    "cache/stage-fit.json": "9f6d30c7d0247895e688d599cac6014b72b19721c74407c4c420a0f610a37b52",
    "cache/stage-report.json": "1e2b7d5941bb30ba64d18a11d006741b4c3b3898f1f5ec12c765f6adcc48ed6a",
    "cache/stage-similarity.json": "0b290f55f69ddd89c2efdac857900cd458f93018e19790d6a85bfe588d1e3e7a",
    "cache/stage-transport.json": "24d9bbe4922e72312bae0882bc7351ffb8608453600aa9e259753c97569001cc",
    "curve-alpha-sys-cosine.csv": "134c12d7273de6cba5f4b87af63d79a39f357866f30ee506ca28f7f57d04f8df",
    "curve-alpha-sys-kl.csv": "117dfe919e2250903a27ca723d969bc5d0e85981f6a4f16f399fd9b929e7ddd8",
    "curve-alpha-sys-lexical.csv": "da6edf76bd490deafea7b8424d7559ddc223928e2b59f1b61288f2ba920e4d5c",
    "curve-beta-sys-cosine.csv": "ab662728b77973bf531924befb9b423268c0d24b0b252aef6b9b0797d5ead27b",
    "curve-beta-sys-kl.csv": "f8d387812d39622fb1be9b5be99f81f59f6a36fcae7373d54f5898530d21bbeb",
    "curve-beta-sys-lexical.csv": "0ab9cab1cbe7301b24d2c75bf35179e521876b2795ba88aaa40a54bbc800215b",
    "fit-alpha-sys-cosine.json": "559487e1b7e54e49266a2c732acb61be5870b9be3377cbf4dd553d60dbf8adc1",
    "fit-alpha-sys-kl.json": "4bc458cd1dc1888f0bab98395b8f3d35c322d4b67af9f863c1e8ef67b90a9c48",
    "fit-alpha-sys-lexical.json": "42ba768725d28e82fa8efaa2f75fb22fbdeeb865a6bbfe81a8650bb11a9fbc0e",
    "fit-beta-sys-cosine.json": "2c874fc31674def9602b622e995f102a8079b4befe543c544d513a2497ef8c6c",
    "fit-beta-sys-kl.json": "ac155640b9ee945413eea75376f77642a2fcab220c1d4e8543f4d328b3a24b1a",
    "fit-beta-sys-lexical.json": "a22f6d705607f20e486dabf4268cfd75f6bc07fe86bb2bf6068326986c8f1460",
    "fit_summary.json": "e9f296063ddc6bd34e09b403c5dee3187fb13577185d5aae32243e6054d6649d",
    "plot-cosine.csv": "a4fe1572bc8f55afee6d1c597de284e5cdf4a4f35f18af86aef781f3522501a0",
    "plot-kl.csv": "e4bf4ca04cdcb44039d501014a18101e3a2f6d82fde4b3aef1a5a3c57983294e",
    "plot-lexical.csv": "5f7371994cae8ca9dd125e2db71405d3910218b920718fb1f85d500c0067f1c5",
    "report.json": "a88ffa9f3ca251f09b8139148b2c9e5656df33291df40ba37a0cb24d516c535b",
    "report.txt": "1bc0e9209ed06db9a9842b2665ebabe963b84dd24ef92003a07806dbff031619",
    "similarity.csv": "37eae0419d12ad4656ff8d4542278100492b4357e60ea3461a66ed1a4fc4b2c3",
    "similarity.json": "81f1735c2f989d0c56a4d14af956fe7efcf49cdeb4cb8209734ea6eb52fd2a71",
    "transport.json": "504abdb97fa5af0d0d25b0aec3f0eb53981613153e5ed75bcdfcbc3b9fb5a27d",
    "transport.txt": "8099f174269ee17b314666bd8ae053d61e31d77c0fe22dd8705e9983ca5169df",
}


def test_output_tree_matches_the_golden_digests(tmp_path):
    run_full_pipeline(write_pipeline_tree(tmp_path))
    out = tmp_path / "out"
    got = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert sorted(got) == sorted(GOLDEN)
    assert {name: digest for name, digest in got.items() if digest != GOLDEN[name]} == {}
