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

import json
from fnmatch import fnmatchcase

import pytest
from conftest import run_full_pipeline, tree_digests, write_mixed_text_tree, write_pipeline_tree

from domainport.cli import STAGES
from domainport.hashing import canonical_json, dump_json

GOLDEN = {
    "cache/profile-news.json": "1d82fe4f2d06dd9e817a8a6382d19675b7b525bece1a57b060cccb68a72b3d42",
    "cache/profile-science.json": "87e7fa3b0b4bc91d8e3ea5b343cfcaac54b880a39a6d393b42f1a95601e7cbcd",
    "cache/profile-social.json": "e8664bb59d7bd4dea0142dd2768a044709071584e6b63d656ec022e9854c7077",
    "cache/profile-src.json": "8d798b4e6d8ae1d10a4ec18a04d3331dcd26159837515089bdf871cfaad02527",
    "cache/stage-fit.json": "e2f42a363a1943c7758d12e2cf6346d578377af6d5434b3d483c5be9c5c8c503",
    "cache/stage-ingest.json": "f24d6d42418a99b6e8f18b31d0aedeb133d6f1c5935be20f7cbe8d0defbe06e2",
    "cache/stage-report.json": "1aab3f97f937f6998872637ed2e1363b81b83aa50bf3ad685eeccc61a9105036",
    "cache/stage-similarity.json": "abebf44926ecaca872af270f3d5a07b310463aedd193e07701cc830212a54b43",
    "cache/stage-transport.json": "25b62478bdfb5b67881d8da822e0584f1b81a167961829a19014cc0201f2c81a",
    "curve-alpha-sys-cosine.csv": "53055f6f7073d23f4ad26c4319e7539fcfd0107ed1166d7784fd5cb6656e6722",
    "curve-alpha-sys-kl.csv": "3ebdb43c2653faa276be015693f4ed9b985c6c7d74a3672fd8f3b9e601e47e56",
    "curve-alpha-sys-lexical.csv": "2e0396ffa3ed4e9000d9c9f6af7d7c9601cb963e8dfcc34e2f02c7b25aa11fde",
    "curve-beta-sys-cosine.csv": "3cdc112cf4039f1ef0423f4ced6ffd4ec466d5147a23c1fe333b670ff94492b2",
    "curve-beta-sys-kl.csv": "b5b72c03335cfcdfcb25ad368e1309f1425982ddbb99a6a42b2a156ff5310c5c",
    "curve-beta-sys-lexical.csv": "b764c84196113ce44206170f8c9bc3d28dbd10f804bc1470de0c4eba90e1ef9d",
    "fit-alpha-sys-cosine.json": "a745c31c7d7a492dc8e80fdb32c675b1cb0c6214e2cbcb27faf830fc5e70a339",
    "fit-alpha-sys-kl.json": "eba1ede50e582919ee698c697acf1243238e9ba0927b7bac1319c05d33b893a9",
    "fit-alpha-sys-lexical.json": "c703294c1cf14b24bffd0b21781d99e32e6c3bcb80783c1975710c03cb2a2f5b",
    "fit-beta-sys-cosine.json": "7654705f7ce99dd093ce7847047d37eabd924777a210a5bf3c2ede9e9ffd1185",
    "fit-beta-sys-kl.json": "a13970784676135ec8dd4594daee064664c68c68b71612cc0d0bf305ba4ea966",
    "fit-beta-sys-lexical.json": "7e6c0d68a22818af9950b86ec998a5ecf72e916dedb9517d5d4e40c72dc37383",
    "fit_summary.json": "a219e582b6c9006bb993edbc770b65058e5001b25171994e320eabf4335b3043",
    "plot-cosine.csv": "af6812ad9bb249ac697ee4f66fdaa98038a004612efdbdc87856450882566733",
    "plot-kl.csv": "5d93938be9674512a3dd9a69d28d03a5ca6dc8913ca511ed7c80205b057e83de",
    "plot-lexical.csv": "4dc2c5cc16f4755543dcc73bf951277d0bab4c5614969438989fdfb7118d081f",
    "report.json": "6da4594bbbcc3087e721eafffb23348efe79cbeb717e3b8b1e5a6bcb8ae1c4f3",
    "report.txt": "b91c1598c1c21c42abe2d7cffbaff1b1102a23d735f7b1b61740c03121a44d20",
    "similarity.csv": "57ec39978a3e152f407ff6c43644d727e5ec0219dee7df00f18ea0420ae9b945",
    "similarity.json": "f5fb0316c5a801745a96703a4d955d682dff3dc550b79601dd93a1cf93a5a843",
    "transport.json": "bdf7bad20c0f7a974bc7bd65eb0e00d8665a5e09014b626b4d1974fee3f791a2",
    "transport.txt": "261743a76a1d795832af0c7a7bd3c993512a87ef0004dd59b8a8a6d66af822ee",
}

GOLDEN_MIXED = {
    "cache/profile-news.json": "4447c99fc36943466c0648edb571a7c0b841108884c94e8d84c7039b244b05af",
    "cache/profile-science.json": "65499fdc8431944cfe7715cd3cb2087c654f50f0dbeec3e2cef66b88d13da23f",
    "cache/profile-social.json": "9b964959f05a7aa268720d764a8f464c597a89e4da49a77be547319eaf7d93db",
    "cache/profile-src.json": "dd4459fc9c84a2a97bdd13b67a6dafcdc89d93b697aacdd0b48e264a78c67993",
    "cache/stage-fit.json": "a2e303dff6c4f588e708a17d9d9521735bf89de60ff0de07542eb9f85e3b5389",
    "cache/stage-ingest.json": "1d9443551411730a9b28c105d6b5311fd5e6c791f213455507e9ba0313e096ff",
    "cache/stage-report.json": "7d48d76d79c8c84b8ee885f46eea8839aa5996e5f47ed54d304676d52e1855eb",
    "cache/stage-similarity.json": "d49aa8d504dab09939408de63a0dfd052c2b513c48d80163fb3392e481e094de",
    "cache/stage-transport.json": "25b62478bdfb5b67881d8da822e0584f1b81a167961829a19014cc0201f2c81a",
    "curve-alpha-sys-cosine.csv": "96110fb6b214c4731079cc596f0e8f146cbe5625027158516d55e3815a2c2138",
    "curve-alpha-sys-kl.csv": "9c5414797e60984ad43c284bc8d03b26564747c383b735716b1d0ba43d8472a6",
    "curve-alpha-sys-lexical.csv": "19ee2088fd9090f8b23acdafaccf7f9b24c3290b3f65715844b2cd3d7558a4c2",
    "curve-beta-sys-cosine.csv": "cba4ba4321e636507902585240d436f2e7699fdb820fd4e6cd2dcbeac74ad43e",
    "curve-beta-sys-kl.csv": "59e190aeb082d94c9f8aea3a94853aab0584735aa5ac106f77627c304a250cda",
    "curve-beta-sys-lexical.csv": "0f234028fa9f280c6e4b022e7f404d77e99a22912cd4bd23e9a3d99b2c09dc36",
    "fit-alpha-sys-cosine.json": "da0644aa2bdcf68dd631431c11c1e7c0a7db3b2b37b9bcd62a976eeca7b5ff83",
    "fit-alpha-sys-kl.json": "86fcf6faa3cc77a34663ebbd96686cac826b7a32c24ce340e87ec0c46dff3929",
    "fit-alpha-sys-lexical.json": "26d8d5ec0fab1c230b2f1a55a07b995f4770a7aab826dad5fd1c1fa4a9766854",
    "fit-beta-sys-cosine.json": "0cb91e9b9e1232cae1968f4f73e6b9c1ba8d3d6495416f73d2452ddef7be0840",
    "fit-beta-sys-kl.json": "98bb34454d566c18b556d4bba0ddf04ac618f0b2051698834ac8a91c228329be",
    "fit-beta-sys-lexical.json": "3c539a75ca0e0a52af27e57c25cb585c326b4c13831fa4cc9861c782eff606a2",
    "fit_summary.json": "74f55c8efb01c768cdf71e7337bfff0ed3682f35cbd3e6baa08aa8a9f3aec36a",
    "plot-cosine.csv": "c41472f7cad7872c4874559d6360f78d96e4c33c4f17eb9a6510c5eb9490adde",
    "plot-kl.csv": "93f9e7ca3cd57ebb92d2e8dd2c2c46cb1bf29759d97b571e6978dedd33d7a554",
    "plot-lexical.csv": "885eaaebfda2e1795020b19b11e6f031ba023020e1fb1cd0858b0aa732eb73f1",
    "report.json": "31c1a2a881fe5c23a98317d6f11afe691dc4bc879a1b2034b319b10ccb3ccd57",
    "report.txt": "b27727c4cba478bde593ada075530fa1195172d1a8ea12560a10e61e06f45e25",
    "similarity.csv": "0ee45dd7e475bd1b3d58d55a868bc340e0583bec738b4c09b03fd3a33b5aa8ee",
    "similarity.json": "575375315a8b76c8b4716af305ca8dbfa9298d70aa529bb745e57d7a8949994a",
    "transport.json": "bdf7bad20c0f7a974bc7bd65eb0e00d8665a5e09014b626b4d1974fee3f791a2",
    "transport.txt": "261743a76a1d795832af0c7a7bd3c993512a87ef0004dd59b8a8a6d66af822ee",
}


@pytest.mark.parametrize(("write_tree", "golden"), [(write_pipeline_tree, GOLDEN), (write_mixed_text_tree, GOLDEN_MIXED)],
                         ids=["lowercase-ascii", "mixed-text"])
def test_output_tree_matches_the_golden_digests(tmp_path, write_tree, golden):
    run_full_pipeline(write_tree(tmp_path))
    got = tree_digests(tmp_path / "out")
    assert sorted(got) == sorted(golden)
    assert {name: digest for name, digest in got.items() if digest != golden[name]} == {}


@pytest.mark.parametrize(("write_tree", "golden"), [(write_pipeline_tree, GOLDEN), (write_mixed_text_tree, GOLDEN_MIXED)],
                         ids=["lowercase-ascii", "mixed-text"])
def test_cache_files_are_canonical_json_and_other_json_artifacts_are_indented(tmp_path, write_tree, golden):
    run_full_pipeline(write_tree(tmp_path))
    out = tmp_path / "out"
    encoded = {}
    for path in sorted(out.rglob("*.json")):
        name, data = path.relative_to(out).as_posix(), path.read_bytes()
        text = canonical_json(json.loads(data)) + "\n" if name.startswith("cache/") else dump_json(json.loads(data))
        encoded[name] = text.encode("utf-8") == data
    assert sorted(encoded) == sorted(name for name in golden if name.endswith(".json"))
    assert [name for name, same in encoded.items() if not same] == []


@pytest.mark.parametrize("golden", [GOLDEN, GOLDEN_MIXED], ids=["lowercase-ascii", "mixed-text"])
def test_every_output_file_matches_exactly_one_stage_writes(golden):
    owners = {name: [stage for stage, row in STAGES.items() if any(fnmatchcase(name, p) for p in row.writes)]
              for name in golden}
    assert {name: stages for name, stages in owners.items() if len(stages) != 1} == {}
