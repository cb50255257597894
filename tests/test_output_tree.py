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
    "cache/profile-news.json": "9028687cdd517332bde0e3dd3898838d116f50337f7f622ea508dce3d749a253",
    "cache/profile-science.json": "e62f85bcd4865e6ea63e043f641f0978d3cf9e7868402244c7f60427743ccaa9",
    "cache/profile-social.json": "fc6ee93df79f78028cf3a5c1373e692ebcde0340331aa2437b22ddedf322d3c2",
    "cache/profile-src.json": "d831d5bc3434b95cf9cd83fe96a00e79c688f467ecb1537789da85a534b0ff72",
    "cache/stage-fit.json": "264d9f7a6c71e5a85f65981a74687eacc7f5aec7c18f8cf9f5a60d53ceb8d232",
    "cache/stage-ingest.json": "bea290730dcc25e9f9541c5f5d073b8fc6d93500549fa1d8ecd34e1f7e1b2a51",
    "cache/stage-report.json": "b92214070c49bcc2de27d16ec83994e11261b8338c52932b0550ef2d88e704f2",
    "cache/stage-similarity.json": "858065d9f39f2ded638ef460a4a99dfaababdd5ec7759bca6a1a0f4ee5fdf56d",
    "cache/stage-transport.json": "1b5abcd153c0f1d37095232aaea1edb8e295ba9cc8cd98ce73da2b27eeb6e6fb",
    "curve-alpha-sys-cosine.csv": "2eb96759fd8e06175bc3ac220b0e283f14fef6d2401156255f65301542be4077",
    "curve-alpha-sys-kl.csv": "5ad0054eb6c539765fa3fefcd41ea3a759201bfe5fac061b0380d5ea826d5662",
    "curve-alpha-sys-lexical.csv": "feb5089cbf405c36eb37fc577c41b72524faab48d385c0c984e2195f3407ab6c",
    "curve-beta-sys-cosine.csv": "d73b361d3c3b50f80c5ea8581d28775fbc4ba8936f40c7621d1bf0498da5260d",
    "curve-beta-sys-kl.csv": "74bc276b513eedbb761a6e085a502dbd1c5f2c207407ac530a183aec5ca94967",
    "curve-beta-sys-lexical.csv": "5ac6fa6b66388f6ecea899692fd69005ff11d0c4ba4dc238347c7eb35ae2745c",
    "fit-alpha-sys-cosine.json": "7d3b3bb1d6d313f3a42f9fb22923c8e55b0fbb7b0ff44ce75d8cc9fac06c1b48",
    "fit-alpha-sys-kl.json": "99d1355d4605a0743d7834fd489baa6cc5d1dfe236c9d7b46942885c9d89c56d",
    "fit-alpha-sys-lexical.json": "fd4ddfbdcdd050a7085d5ef3255b2415635c8b3966da0a9f8792d5f6c0ee06bf",
    "fit-beta-sys-cosine.json": "596087fe2b940b883ef91541ef08ddabbbc98c3f2055ebfdb2035cff3f2d4f3d",
    "fit-beta-sys-kl.json": "0882129dae4839a6e84bd206164449762c78faf3feaec13499ce78639ba32fe4",
    "fit-beta-sys-lexical.json": "2ef659202fb803358b89eccfde862ecad7689189ab712c8622f0a3c65a1c2a5f",
    "fit_summary.json": "405dc650e46289b3d8867022b1616428911b849d74520bc1196c27701d8f0969",
    "plot-cosine.csv": "1805b6fcf4e557d10f323a98ba3acc5b5c5eb5c2db33cabfb20882341e519fe3",
    "plot-kl.csv": "945028a5421ab15ba7da842ecfb3c365a946207cbb76be7dad24697449e30ec9",
    "plot-lexical.csv": "9b899fecc138a4040321e486cc02400d488badfc4ffb1517907222245038fef3",
    "report.json": "4c29cdf5230554d22aee5b3a71546db9c557192d4547646a393d184eb009f57d",
    "report.txt": "8e6136ef9d2855f34e9a96bbc2de55c776d2148d1ba86b7b07a7a2a631412032",
    "similarity.csv": "769b578227095550c86139a5e9f25581782440558ecb6bcbb05b93d09e2817ef",
    "similarity.json": "4187b7906953b4f009056ec78d699d7f1abeda186c815efb50f9976bb35daed4",
    "transport.json": "6119a7ba9485211920195e0480202e3e6e5a724421eacfbfbfd056937b988ade",
    "transport.txt": "db1c1446e573300a312cb15447de3472be9f51af870a6b955050c7b74bd0e642",
}

GOLDEN_MIXED = {
    "cache/profile-news.json": "03c940e73e21377ed36108bde4f9540a333d3ea406355df84fee50447da991f5",
    "cache/profile-science.json": "29b507b1d403a2d6c6572580dc7e6201f1721bb4a040599acd6133b5ddc6ef11",
    "cache/profile-social.json": "a2ba5bd56bf2382de9572ed7b46e52b8184addef57df4fb84b9258c8dfdb59f8",
    "cache/profile-src.json": "bc53be95decdb7354ee40cc771a017f5ff0e708f47ecc465820322c35f9e51b0",
    "cache/stage-fit.json": "0e11fb20f3716cdc68d813aeef6aebb0801f412adf6a299ad6d76aef76fbc886",
    "cache/stage-ingest.json": "91cb5be11fff2c75a4048e1ac62dd0b91ee1135a8beb7d316ba316b6c7912512",
    "cache/stage-report.json": "d4c819a6e075e4d6c78b060da154d1aa29d6bc4067e9e5b5c2b9cc0fa2c5851b",
    "cache/stage-similarity.json": "8cbf624d0c7dd89d0170a6debf32b2d7a648bdeb5be96d88db4e9393416e98d6",
    "cache/stage-transport.json": "1b5abcd153c0f1d37095232aaea1edb8e295ba9cc8cd98ce73da2b27eeb6e6fb",
    "curve-alpha-sys-cosine.csv": "ddf7a43a40da12bee9d51b7664d438b913120fb13953c626eab15f92eadc7e5b",
    "curve-alpha-sys-kl.csv": "8475f17fb2dd732d874e284a4bc51ea859dd0e9d2ca184423088913f8f977684",
    "curve-alpha-sys-lexical.csv": "a52646baec531118dc7f73993064d69be2914abd38d62615cc930a1256bca6a4",
    "curve-beta-sys-cosine.csv": "86625a1e7d9eef157b1682db43b3477b524c21eac5f7e0158e2872deca71da27",
    "curve-beta-sys-kl.csv": "3849533742bddd09cc05149873c026d901290a864d9fe2c1216c9da7cbdb87e9",
    "curve-beta-sys-lexical.csv": "2dc37a9315746946e79e7bb2ca43b7c8fb76067450fc6e7ce1ecdf0b8b8f2986",
    "fit-alpha-sys-cosine.json": "d55566980627d074e880f39556e4bacbd903f075cc13278ec76b9f81ee46fcbe",
    "fit-alpha-sys-kl.json": "c6850259b67f2c94f676092ee2b12a509b0c4c8db0271e253fbab96fe3fb864d",
    "fit-alpha-sys-lexical.json": "d6c53dab422ab7e151d1c7dcb194757c2db6df42ecc793e306c92aa6512116f0",
    "fit-beta-sys-cosine.json": "47b569059ddb4ac065f325e9f2483810dc4be4d53130d16e63ab70bf41e3ae2f",
    "fit-beta-sys-kl.json": "7acc657c13c8b24e441551bfd127f47537515a128581e6f3610234c19aaa5079",
    "fit-beta-sys-lexical.json": "3d3a14823a16b484cd27e64f6ae8fa5678b79fe5ecbd1944993486637b8cc5a6",
    "fit_summary.json": "3a27c2daf8f0c5a73a04f4d85c3a1f8cc9282efaa23e4ba3165b0359e04719a8",
    "plot-cosine.csv": "fdda8cac10604850b3011285aae470d1679f0f77f58b704a773f66541c664762",
    "plot-kl.csv": "c62a46477412408ff5a3640cd5a0bd7a8e94f78a68519574a96e6ed15a38f083",
    "plot-lexical.csv": "47166519c7e64b9f61ff4cf5e28dddfdc77a3a9df7baf39c0b50b1b45e6bf846",
    "report.json": "d6df830a47a51d6deaeb184d8824e9de284b7c4e03d82f88de887f06892516c2",
    "report.txt": "db07d160eb8b9553197027377b2bf4d979a7a26d9a787e7f77ca93d76f59e492",
    "similarity.csv": "cd76eb5bd85307b65095e074ecd94906663a0b4d43a745d467fcc7edb64786b0",
    "similarity.json": "44e5d83257b2c7c78d2a809d50fdbe19c060eaedb55edc99a6d173efc2547a9e",
    "transport.json": "6119a7ba9485211920195e0480202e3e6e5a724421eacfbfbfd056937b988ade",
    "transport.txt": "db1c1446e573300a312cb15447de3472be9f51af870a6b955050c7b74bd0e642",
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
