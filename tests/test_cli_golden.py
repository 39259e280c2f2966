"""CLI stdout and exit codes pinned byte for byte on the bundled datasets.

Each run calls ``cli.main`` in-process and compares the exit code and the
sha256 of its stdout with the digest recorded in ``GOLDEN``. The runs cover
every subcommand in text, JSON and CSV, the three rank methods, the three
similarity measures for a pair and for ``--matrix``, both TOPSIS measures,
and a few validation failures. Every ``build --format json`` record must also
read back through ``FuzzyNumber.from_dict``.

One table holds on every supported Python. From 3.12 on, ``sum()`` of floats
is compensated, so the package adds floats that reach its output in explicit
left-to-right loops; a run with ``builtins.sum`` replaced by a model of the
compensated sum checks that no output depends on it. A change that means to
alter CLI output regenerates the table with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and says in its change note which runs moved and why.
"""

import builtins
import contextlib
import hashlib
import io
import json
import math

import pytest

from iaarank import FuzzyNumber, ScaleConfig, bundled_path, construct_fuzzy, load_dataset
from iaarank.cli import main

DATASETS = {
    "films": ["--input", "films", "--scale-min", "1", "--scale-max", "10"],
    "synthetic-3x2": ["--input", "synthetic-3x2", "--scale-min", "0", "--scale-max", "10"],
}
PAIRS = {"films": ["Film B", "Film H"], "synthetic-3x2": ["X", "Y"]}
# similarity and rank read one criterion; synthetic-3x2 has two
CRITERION = {"films": [], "synthetic-3x2": ["--criterion", "c2"]}
FORMATS = ("text", "json", "csv")
MEASURES = ("jaccard", "attribute", "combined")


def runs():
    """(name, argv) of every pinned run."""
    for dataset, data in DATASETS.items():
        one = CRITERION[dataset]
        for fmt in FORMATS:
            tail = [*data, "--format", fmt]
            variants = [[command] for command in ("build", "attributes", "plotdata")]
            for measure in MEASURES:
                variants += [
                    ["similarity", *PAIRS[dataset], *one, "--measure", measure],
                    ["similarity", "--matrix", *one, "--measure", measure],
                    ["rank", "--method", "ideal-ratio", *one, "--measure", measure],
                ]
            variants += [["rank", "--method", m, *one] for m in ("universal", "baseline")]
            variants += [["topsis", "--measure", m] for m in ("attribute", "combined")]
            for head in variants:
                yield f"{dataset}: {' '.join(head)} --format {fmt}", [*head, *tail]
    films = DATASETS["films"]
    yield "films: similarity with one label", ["similarity", "Film B", *films]
    yield "films: similarity of an unknown label", ["similarity", "Film B", "Z", *films]
    yield "films: rank --epsilon -1", ["rank", "--epsilon", "-1", *films]
    yield "synthetic-3x2: rank without --criterion", ["rank", *DATASETS["synthetic-3x2"]]


def digest(argv):
    """(exit code, sha256 hex of stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


GOLDEN = {
    'films: build --format text': (0, 'ff3b8ebca94f350fa77cf2480fbc184a4784117b991b74bfe1aaa0f21f01c596'),
    'films: attributes --format text': (0, '09294203248a34ebfe480e553e74a5497831c3ea7d1b6d094c516087d5e1a7e0'),
    'films: plotdata --format text': (0, '0ea61c3b4d8d85929717bf877b941bdfeeb7c5251c00925fbbaea7bb73f6ff02'),
    'films: similarity Film B Film H --measure jaccard --format text': (0, 'aa0a83260c2df87331d25f5506316c724fb8702e556fcadb0c291906fe73b8e0'),
    'films: similarity --matrix --measure jaccard --format text': (0, '7aed11d8f02b64b2a884199abc8a53d37545dea9d45392dfebb85f5661a62958'),
    'films: rank --method ideal-ratio --measure jaccard --format text': (4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'films: similarity Film B Film H --measure attribute --format text': (0, 'c7a2b603523a3a9ba66a0ad686ecd3f680daf8435f556e9ca8d5221f5bedacab'),
    'films: similarity --matrix --measure attribute --format text': (0, '3f3afc2a88f7809dba78f39b10d9225371a70931f6194f3e5b1027ee22c1b55d'),
    'films: rank --method ideal-ratio --measure attribute --format text': (0, '87a18f3ebf367f3f7ad99baabf3c1726812d932d3298a3ebb06894cd5c357180'),
    'films: similarity Film B Film H --measure combined --format text': (0, '5ebfcd84af963af6d1b5670993900f6a2c958fdbeaf80cb572e9dd868d429970'),
    'films: similarity --matrix --measure combined --format text': (0, 'c423c134edd268dc7d3e9047788ca34be67c97e2f8affeb4862a87123dc8e5d7'),
    'films: rank --method ideal-ratio --measure combined --format text': (0, 'ea34d2b13e72a3d8e6382191f24cbca41bea2ef8b226bc95b145a10a7a8706df'),
    'films: rank --method universal --format text': (0, 'f90c6a36aaf86db34596698833931e2c75fe43dfb1087bd7d5caf7fda1488096'),
    'films: rank --method baseline --format text': (0, 'ce4aac73009b08c079041733664b57be321a10188c255ee8ebb1251555c7caac'),
    'films: topsis --measure attribute --format text': (0, 'c0bc96ba2229a97091d3d2491bfa5e1990e1b6ac60864f44e0227c428618f230'),
    'films: topsis --measure combined --format text': (0, 'c71873066cc6748a6f20ecdd760cb47b7bdfd5fa1bfbf4697c6336d87eca0a20'),
    'films: build --format json': (0, 'ada32f04fdbf7b7ed511fa79dc6b05aa115c49a1faa74bf52037b8746142ff56'),
    'films: attributes --format json': (0, '5ce8a3e9da220956a0059f84634fd06c7e31599d7815a3f903d346626d4a582b'),
    'films: plotdata --format json': (0, '0ea61c3b4d8d85929717bf877b941bdfeeb7c5251c00925fbbaea7bb73f6ff02'),
    'films: similarity Film B Film H --measure jaccard --format json': (0, '672173779c2d32d9dd30b09a2025ff88f733dda3645c1b8d35183182b016ddc9'),
    'films: similarity --matrix --measure jaccard --format json': (0, 'e37e15d4bb5a1af0e77033937ab3b6888ce5ca9a1df6e28f832258601f9b0ced'),
    'films: rank --method ideal-ratio --measure jaccard --format json': (4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'films: similarity Film B Film H --measure attribute --format json': (0, '8bf1a2848de0ba9d01471d7edb460e441225069ca4ab595bfaf83306640d7a1b'),
    'films: similarity --matrix --measure attribute --format json': (0, '6165ecb548966b39d7c7607ce22d36f27bfebd17baadcc0cd1b5a5c6b1cec27a'),
    'films: rank --method ideal-ratio --measure attribute --format json': (0, 'd0ed7225d3e60288cfadd018bb48b73e3e009617c2724502afb1dd4819ae45f3'),
    'films: similarity Film B Film H --measure combined --format json': (0, 'a892dbf6916680a54ece53d733d68da8bdd8c0e4a336ff72272d79fb804600b1'),
    'films: similarity --matrix --measure combined --format json': (0, '59e6e18d7dcd0ab8fab3a599c6f85cf75307217638d547cac18bb2975a510931'),
    'films: rank --method ideal-ratio --measure combined --format json': (0, '41209eccceb584aecf6c6a24a1be1c00a855c7dd130af3073c2a903f9127f379'),
    'films: rank --method universal --format json': (0, '40aa12062340f0ef96867078e9fc558a2735f1e9c42acd0a9eec9db6556dd04c'),
    'films: rank --method baseline --format json': (0, '6953f35354f369a30a774b0813e626eb67353cfa2d0973f5541d211236e115b3'),
    'films: topsis --measure attribute --format json': (0, 'd6c33bffee317569e314dfdabb5f548d58a95de8e59363ed7c95c1da26c68950'),
    'films: topsis --measure combined --format json': (0, '0d1f8505393f956608357337ef6f2fb2c1f7262c6359cc1287710cc87e6dba71'),
    'films: build --format csv': (0, '4fa064e0e3692036ba2f98ca00ce8918433ca8789cac998e2f582eb25f56ec08'),
    'films: attributes --format csv': (0, 'ddf8db3954a4be6c524d9fc02fb2c8e21c5ae589a85480be9a0a9190550a1d58'),
    'films: plotdata --format csv': (0, '0ea61c3b4d8d85929717bf877b941bdfeeb7c5251c00925fbbaea7bb73f6ff02'),
    'films: similarity Film B Film H --measure jaccard --format csv': (0, 'b9ee1951631ade751a099b43100bfe60b8afe382d2266d8632db79eb18940b60'),
    'films: similarity --matrix --measure jaccard --format csv': (0, 'c1e0745c44285c6ddee66fbeadf3894185ef0c4aad5bbbb07617e9ccbef910c3'),
    'films: rank --method ideal-ratio --measure jaccard --format csv': (4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'films: similarity Film B Film H --measure attribute --format csv': (0, '3cf9ad68921badba6dfdedc8b3f1431c6143b4416c64dc067ab005d08e0750c3'),
    'films: similarity --matrix --measure attribute --format csv': (0, 'dd532de61e821f0388af73ee1560589a19521d2a3d7015fe5d8cca3541c938a7'),
    'films: rank --method ideal-ratio --measure attribute --format csv': (0, 'b6a8aa8dcce7101b8c907e15612ca29d5e85f8fe49f550c50b9f86b7bf9627a2'),
    'films: similarity Film B Film H --measure combined --format csv': (0, '3f213d6b3d33ea31fd6790a8bb2e10a4a52e7c2ed0eb3c326c2e1f5f9e677675'),
    'films: similarity --matrix --measure combined --format csv': (0, '11ef395be34f651fa8be5df7cbac9762100f80d0a1c288195565ac20ce3c8033'),
    'films: rank --method ideal-ratio --measure combined --format csv': (0, '047aa0edb7fc7e7d68569e59d35d852a3abc5369f2b6b13a51a5d273e11ec260'),
    'films: rank --method universal --format csv': (0, 'e3185c5d9fdec9c104d691bf699b0e178a580a2d812e1720989e4502ce17fcd8'),
    'films: rank --method baseline --format csv': (0, '20f60f29db87e89f26b7d6af92e762b96addf1a0fc96bcd9df0247234d484473'),
    'films: topsis --measure attribute --format csv': (0, 'd26efbe1ec35d9b2bb9b445325da0944e6e160ef448701071f87833e5153b821'),
    'films: topsis --measure combined --format csv': (0, 'f77dd0cca4197f334c1615dacf3895ab086a25448d6a340d055089ac4ea81b36'),
    'synthetic-3x2: build --format text': (0, '84140c10a1918789f9a4d4f90a3d025dda29c8c34a109e97b65a98a676a3b99d'),
    'synthetic-3x2: attributes --format text': (0, '95103fc7b5f8eca489ff67415b29f46a1a341b4ed6fce65a17927e1de46ad470'),
    'synthetic-3x2: plotdata --format text': (0, '4bc3016e2da291bbcb01e4d53dd016b63100f5fb061e08cc8407ec4677bca032'),
    'synthetic-3x2: similarity X Y --criterion c2 --measure jaccard --format text': (0, '9bedcdce132837c342663f59e1de89c8e8467a0c7d1b94082e7570a358bd2a96'),
    'synthetic-3x2: similarity --matrix --criterion c2 --measure jaccard --format text': (0, '9dde0ea3a1f350b7ba87b5655d1c24e3ef1df01185893f41d89e5b83716a3e98'),
    'synthetic-3x2: rank --method ideal-ratio --criterion c2 --measure jaccard --format text': (4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'synthetic-3x2: similarity X Y --criterion c2 --measure attribute --format text': (0, 'a408ed49e930befcfbc0b53d10563d523b845c0e6eda95939448bab693fff3ba'),
    'synthetic-3x2: similarity --matrix --criterion c2 --measure attribute --format text': (0, '92bf69e379c5a3be88ca3db8045795a13fa1fbc525847926928c85ea7d4f8469'),
    'synthetic-3x2: rank --method ideal-ratio --criterion c2 --measure attribute --format text': (0, '46ea04b04c949f3bf2a1017b1d8d6077143bf498e5f9bdc35d4153c6fc0b2b3e'),
    'synthetic-3x2: similarity X Y --criterion c2 --measure combined --format text': (0, '526d27cface7d685ccbaa923669b2d5030ac7c134aeb5d4abed887b2559db1c8'),
    'synthetic-3x2: similarity --matrix --criterion c2 --measure combined --format text': (0, '510ce3a4e6f4f2d4abb91cb36723b22a59ddd876c529bd5c18cb9eab77ba16e0'),
    'synthetic-3x2: rank --method ideal-ratio --criterion c2 --measure combined --format text': (0, '2152c0660c0c18b4a137a6e7497ff90bc7eafdd940f0a291244e19cafea1c857'),
    'synthetic-3x2: rank --method universal --criterion c2 --format text': (0, '0a03df64e6d73e92d3e9daf58b4a7314a5178143f237f73fc7c4d3e791e2618e'),
    'synthetic-3x2: rank --method baseline --criterion c2 --format text': (0, 'e3b09cb1e7afe4150900427f71af114cc6c5868b006ac234b37b0b22da00f670'),
    'synthetic-3x2: topsis --measure attribute --format text': (0, '50818c5d93192175e36516de825527cecfd056faeb66b211c34c166d19d4dfd8'),
    'synthetic-3x2: topsis --measure combined --format text': (0, 'efa3f0741e7d4c55cc78aa4e79443b7389a92189f1f4a4690eb265c313aa596d'),
    'synthetic-3x2: build --format json': (0, 'bb916a66e86fd9e1cd22ead88f978c5a68056a6344c2bc6690c43997d15b3654'),
    'synthetic-3x2: attributes --format json': (0, 'f9ecb108f21fead1bda4b8e357e503cce7ad2c1e48220c07a9159ece8a6d760a'),
    'synthetic-3x2: plotdata --format json': (0, '4bc3016e2da291bbcb01e4d53dd016b63100f5fb061e08cc8407ec4677bca032'),
    'synthetic-3x2: similarity X Y --criterion c2 --measure jaccard --format json': (0, '8bdb080064d0b7ce52ae232654321b82f27bb37b0f851c89335e8ef2b5b99b92'),
    'synthetic-3x2: similarity --matrix --criterion c2 --measure jaccard --format json': (0, 'f3344f8ef4373ce96882a6225dd099ab6162981e9187c0c601416710890de3bb'),
    'synthetic-3x2: rank --method ideal-ratio --criterion c2 --measure jaccard --format json': (4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'synthetic-3x2: similarity X Y --criterion c2 --measure attribute --format json': (0, 'e70b6e2c660745a915b3c500ab0552f11ddfa0b57b32f0d0b90c2a08df0455f2'),
    'synthetic-3x2: similarity --matrix --criterion c2 --measure attribute --format json': (0, '4d3d0515195941e3cdddd648ef909129434986c49fb05b8af5c21884a873caa4'),
    'synthetic-3x2: rank --method ideal-ratio --criterion c2 --measure attribute --format json': (0, '593f27136876c27df9aa54a7d290b04b39f41a66e01855dd5dbb536bad7457f8'),
    'synthetic-3x2: similarity X Y --criterion c2 --measure combined --format json': (0, '2fa3949770810aed2fb018971495c065e5feb2cd9c815b6b18d266c55095e3ad'),
    'synthetic-3x2: similarity --matrix --criterion c2 --measure combined --format json': (0, 'e6ec34bda98ecaef51a0a61bcccba9de2e6bcbc85f59adfbce01631b3109c795'),
    'synthetic-3x2: rank --method ideal-ratio --criterion c2 --measure combined --format json': (0, 'bebf1a3a04ce5239cb59c6fd0112ab05351f7465079fde5bf30331c01975644b'),
    'synthetic-3x2: rank --method universal --criterion c2 --format json': (0, '74156ec8a511cfa7023d02b874d8261971c1008003297b25c221ed5488fd7f8b'),
    'synthetic-3x2: rank --method baseline --criterion c2 --format json': (0, '1a63d8504443f4cd8ab2d976055c9da252ae9ac7a8304e338505ba831378e897'),
    'synthetic-3x2: topsis --measure attribute --format json': (0, '4054d4d92a22265aaa482e1070950f6384cf721b078bc27100fbc74c24b50796'),
    'synthetic-3x2: topsis --measure combined --format json': (0, 'ad71e3a37306acc524f8cf793f33c54cec30daf702959a5890cd1b28925e8106'),
    'synthetic-3x2: build --format csv': (0, '8dbcc7b47b2e5db4663f43ab0c891d1cb081610eaacfbd485f11801004f6c55f'),
    'synthetic-3x2: attributes --format csv': (0, 'f26b3de37968bbf549855eecf1d43820f438f4d1ef70fde3e5d882459a8e00b1'),
    'synthetic-3x2: plotdata --format csv': (0, '4bc3016e2da291bbcb01e4d53dd016b63100f5fb061e08cc8407ec4677bca032'),
    'synthetic-3x2: similarity X Y --criterion c2 --measure jaccard --format csv': (0, 'c4981e5be825a2c12beec8a11aeca520b4118d690e0cb9e81bcf24be15a14ff4'),
    'synthetic-3x2: similarity --matrix --criterion c2 --measure jaccard --format csv': (0, 'acceb5f20889269094ab684570856885c0b74a13a773a4de3555103a0090924f'),
    'synthetic-3x2: rank --method ideal-ratio --criterion c2 --measure jaccard --format csv': (4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'synthetic-3x2: similarity X Y --criterion c2 --measure attribute --format csv': (0, '258efdfbe7b1b8dd74470f4e2005ea217fb4587a22e5cf36817973381b77f027'),
    'synthetic-3x2: similarity --matrix --criterion c2 --measure attribute --format csv': (0, '854d72c0b46b31a1e1b2e1409a926b590280edca3388bcc22965f82bf9bc8635'),
    'synthetic-3x2: rank --method ideal-ratio --criterion c2 --measure attribute --format csv': (0, 'ee0b6fe69eec763ab601e49f3c2dccbfb7e4bc4d8644745c91ca4b781a9ce060'),
    'synthetic-3x2: similarity X Y --criterion c2 --measure combined --format csv': (0, '1b38d5d5bea1b761b58ca6d38fe32a4dc50e6fa4c7bc7ea51dca73cc94932791'),
    'synthetic-3x2: similarity --matrix --criterion c2 --measure combined --format csv': (0, 'aaa7825ccacc05dc9379e1a3e130235e5c6bc23bfeda696865ddb080d2b4ac4b'),
    'synthetic-3x2: rank --method ideal-ratio --criterion c2 --measure combined --format csv': (0, '508bc0ccac06fb5847784ce0a832d265c8f861a2ce08bc7a1d37038855b0063a'),
    'synthetic-3x2: rank --method universal --criterion c2 --format csv': (0, '0c663b6440e46c2a3899685dd3f98a12bdbd456c0ac4d3fc872ff9ca76918cfa'),
    'synthetic-3x2: rank --method baseline --criterion c2 --format csv': (0, 'e2d6a621a4dd6e8af7e5ab7dbb83068f4dfead538f4690b3751e4131062ad457'),
    'synthetic-3x2: topsis --measure attribute --format csv': (0, 'd12b2f35da9fb1e5fbfb733e1b6b4c7199e33f938a6ba667696ab00235741fda'),
    'synthetic-3x2: topsis --measure combined --format csv': (0, '0eb0257e474e0f5bc5337b976cba63da562f79c17542578d70de007e81fca911'),
    'films: similarity with one label': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'films: similarity of an unknown label': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'films: rank --epsilon -1': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'synthetic-3x2: rank without --criterion': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}

RUNS = dict(runs())


def compensated_sum(iterable, /, start=0):
    """builtins.sum as Python 3.12 computes it: floats added with Neumaier's
    compensation, which is applied at the end only when it is finite, so an
    infinite sum stays infinite instead of turning into NaN."""
    total = start
    compensation = 0.0
    for item in iterable:
        if type(total) is float and type(item) is float:
            step = total + item
            if abs(total) >= abs(item):
                compensation += (total - step) + item
            else:
                compensation += (item - step) + total
            total = step
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            compensation = 0.0
            total = total + item
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_every_run_is_pinned():
    assert sorted(RUNS) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_and_exit_code_unchanged(name):
    assert digest(RUNS[name]) == GOLDEN[name]


def test_output_does_not_depend_on_how_sum_adds_floats(monkeypatch):
    assert compensated_sum([0.1] * 10) == 1.0  # 0.9999999999999999 unpatched
    assert compensated_sum([1e308, 1e308, -1e308]) == math.inf
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert {name: digest(argv) for name, argv in RUNS.items()} == GOLDEN


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_build_records_read_back_through_from_dict(dataset):
    """Each build --format json record, context keys and all, is read back by
    FuzzyNumber.from_dict into the number construct_fuzzy makes of its cell."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["build", *DATASETS[dataset], "--format", "json"]) == 0
    records = json.loads(out.getvalue())
    _, _, _, low, _, high = DATASETS[dataset]
    scale = ScaleConfig(float(low), float(high))
    data = load_dataset(bundled_path(dataset), scale)
    assert len(records) == len(data.alternatives) * len(data.criteria)
    for record in records:
        cell = data.cell(record["alternative"], record["criterion"])
        assert FuzzyNumber.from_dict(record, scale) == construct_fuzzy(cell, scale)


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, argv in RUNS.items():
        print(f"    {name!r}: {digest(argv)!r},")
    print("}")
