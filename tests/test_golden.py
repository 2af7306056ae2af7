"""Golden outputs: CLI stdout and exit codes, and grid tables, pinned by sha256.

The pins were taken from the code before counter grids were built as the
expansion of the chain, so they check the expansion independently of
:func:`carefulsync.transforms.transform`.  The commands on automata of more
than 32 states, whose letter tables have chunks beyond the four unrolled
ones, were pinned before each chunk row held its domain mask.
"""

import hashlib

import pytest

from carefulsync.cli import main
from carefulsync.families import gen_grid

SPECS = (
    "witness",
    "grid:d=2,k=1",
    "grid:d=3,k=4",
    "cerny:n=2",
    "cerny:n=5",
    "chain:k=5",
    "padded:d=3,n=7",
    "padded:d=4,n=5",
    "random:n=6,l=3,p=0.7,seed=3",
)

COMMANDS = [
    argv
    for spec in SPECS
    for argv in (
        ["gen", "--family", spec],
        ["words", "--family", spec],
        ["check", spec],
        ["solve", spec],
        ["export-dot", spec],
    )
] + [
    ["sweep"] + [a for spec in SPECS for a in ("--family", spec)],
    ["sweep", "--max-subsets", "5"] + [a for spec in SPECS for a in ("--family", spec)],
    ["errata"],
    ["transform", "chain:k=3", "--d", "2"],
    ["transform", "cerny:n=3", "--d", "2", "--word", "c1 c2 c2 c1"],
    ["solve", "grid:d=11,k=3"],
    ["check", "grid:d=11,k=3"],
    ["solve", "grid:d=17,k=2"],
    ["check", "grid:d=17,k=2"],
    ["solve", "random:n=40,l=3,p=0.95,seed=1"],
    # unforced at step 3, so the rest of the word is walked over the wide rows
    ["check", "random:n=40,l=3,p=0.95,seed=1", "--word", "a a a a a a a b a a a b c"],
]

# " ".join(argv) -> (exit code, sha256 of stdout)
GOLDEN = {
    'gen --family witness': (0, '4c188a2e17828f1a39ddfcf7c9e162c7ed2f365bbcb5838d298a3908adb5893d'),
    'words --family witness': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check witness': (0, '9dab7c55bd436fae25af9cbd15276b92be38d5bdf9ff728f723b10455081d632'),
    'solve witness': (0, 'f67bbd5f64de017194397758f022cb48aeec3bca51f071da1c373399e4f6afc2'),
    'export-dot witness': (0, '16d3f0f107266eb1888bd7f3dc644dfb53676ab5451d96c79ac1a698db2e6500'),
    'gen --family grid:d=2,k=1': (0, 'acf9f3cae67c93b26671e43f6327e3ac4cd320ce1b14827ffd7ae01c18f8336e'),
    'words --family grid:d=2,k=1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check grid:d=2,k=1': (0, '38f90f986d1bd95858dbed0e2cf522d3bf38861a147aa9eae33755d0299631db'),
    'solve grid:d=2,k=1': (0, '0d3e0ed20f8ae6b89606b7051adae7224ecfbbece6e16cb8583e081ab4a74458'),
    'export-dot grid:d=2,k=1': (0, 'cf2b93de60dcefaaae661d9962dddb7cdb9bc90ffc1b9e04ec1a7cd030bf6f67'),
    'gen --family grid:d=3,k=4': (0, '419da4363b8b4564d5bd795ccfdcba003293acb348eab49e69f40d77569811d6'),
    'words --family grid:d=3,k=4': (0, 'dde64415080dce68a2a7a3a144106a9f79fb9eb736704cffa71befe33c67f0d4'),
    'check grid:d=3,k=4': (0, '5765a59bdc575eebbb4add7f0c1b9a204f6118f90397b639dd3d6d695cafeddf'),
    'solve grid:d=3,k=4': (0, 'feb019ec20dfb80e2515354b281e1544aeb68023df504d612aa1ec9389725380'),
    'export-dot grid:d=3,k=4': (0, '1e9d8bd55a66f13286baad00cdddef45a7022a9899ca280a5f1b34f19ed6306a'),
    'gen --family cerny:n=2': (0, '4b90285beb7b5edba0c509efd747ca98ef48d6ebec6dac15dfeaf71beeceb9e8'),
    'words --family cerny:n=2': (0, '7f147dabf5d61e99ebb3d8f0ca48549fd98e2d0783af6ee85fff7a2b9ce08b40'),
    'check cerny:n=2': (0, 'ccb94a20ec43ebe5b209835db4277e000e3cb8389d9701f27847b912549782b2'),
    'solve cerny:n=2': (0, '7920b3264ff98bdd84ce3d4183742d645e1e3be4d20c5f827e7454f346f063dd'),
    'export-dot cerny:n=2': (0, '6cae223b0aa47ced378a40bdac8e5e211a732778942c833eafdbbba628740e0e'),
    'gen --family cerny:n=5': (0, 'a7c322b38633b7cf552abbda8efc7086bba271c145d9681d98045c6f649f77f1'),
    'words --family cerny:n=5': (0, '09131b66b92e40016a1cc6bdc18ff3bca6f4dd87feb304afc29e91ddf8366cc7'),
    'check cerny:n=5': (0, 'bf530ce41e605a14438c637062717116cf6cddbb917022b405f47f1270dbb023'),
    'solve cerny:n=5': (0, '1ac509fd83b9418571028eaa686fedff047aed4e9068a5e7cb2261ff7c3bc280'),
    'export-dot cerny:n=5': (0, '584c7d72c38988a61796c0f678a3bc98d619092b6db894e47c6ea078867c2504'),
    'gen --family chain:k=5': (0, '4f148d1c2f5803844b7cba1dd24dca477a95e919431c8e246015563607481945'),
    'words --family chain:k=5': (0, 'd0545ab7634db8bc5cedd747e0bb298e365b55563f26ee8dbea11febdec158de'),
    'check chain:k=5': (0, 'c78c716583ccb2f7962d3ccac252424d1f0201fcf4bcad2adf9057c56ccbfe8f'),
    'solve chain:k=5': (0, 'd76cf93b76e97e470e0a7f34235471eb18be01f6e94a05b9ffddf02573e11a73'),
    'export-dot chain:k=5': (0, 'afa113fbc854c5a8bd8dcff70b9d18819de187ac2f75ab51a9778af7c536e572'),
    'gen --family padded:d=3,n=7': (0, '91f48bef8b8f772fafed72d78ceb2c0580713172e2c46fe50f9d5bbfc798ae0b'),
    'words --family padded:d=3,n=7': (0, '8fdd324fdd0368ad3c79803e6b902a090e4b319db46e445cfeec7ba826956c8b'),
    'check padded:d=3,n=7': (0, '5e2c2f447ce59eb5cb1aa9cb64569e949ccd376081ad9ecf5098115de2908cc3'),
    'solve padded:d=3,n=7': (0, '5317c1211f02728edefe3a4afc539209ec7628be3a3c757cb5d8f425d9a61450'),
    'export-dot padded:d=3,n=7': (0, '627b203c19b3d71ce6208b98bdfa076029bef348439caa02cbaf86e9ca639c82'),
    'gen --family padded:d=4,n=5': (0, '24fe03dd2bfd58b1703cfc222a73f09dd6020bd23a1b96653da859b502abdf74'),
    'words --family padded:d=4,n=5': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check padded:d=4,n=5': (0, '8e6f3f714d4d6f422da246bcb97c47ee57a3d34d9e54c20ea39f4b296b2201aa'),
    'solve padded:d=4,n=5': (0, '80f427cb0532be3bf98fd8dbdaece72cb92a65d7a16210e80754fb1e663c74b2'),
    'export-dot padded:d=4,n=5': (0, '35ae8490ed62bdeead090d4b43bd868ee7c47c3edf34c13bc14567108894b0cf'),
    'gen --family random:n=6,l=3,p=0.7,seed=3': (0, 'f42e62863baef757f70fd1bc5514327810a0453bed39ee747447ec2fd6b84189'),
    'words --family random:n=6,l=3,p=0.7,seed=3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check random:n=6,l=3,p=0.7,seed=3': (1, '6a9bc4e7e1d92364fa2b364a4a61d424f1687676dc651b8822b1a5c60e6b6c6f'),
    'solve random:n=6,l=3,p=0.7,seed=3': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'export-dot random:n=6,l=3,p=0.7,seed=3': (0, '1a109f942fd92c03568a357c5f65e3d35d720ba2780666ed515bf8cbe2e38ab1'),
    'sweep --family witness --family grid:d=2,k=1 --family grid:d=3,k=4 --family cerny:n=2 --family cerny:n=5 --family chain:k=5 --family padded:d=3,n=7 --family padded:d=4,n=5 --family random:n=6,l=3,p=0.7,seed=3': (0, '22dd938551668c9d13adcb6537294601bd9f73ca7bafe67f9a5134104fff2032'),
    'sweep --max-subsets 5 --family witness --family grid:d=2,k=1 --family grid:d=3,k=4 --family cerny:n=2 --family cerny:n=5 --family chain:k=5 --family padded:d=3,n=7 --family padded:d=4,n=5 --family random:n=6,l=3,p=0.7,seed=3': (0, 'd20c2cfb014f6b9bf38b015287719b9455c5b568116857762b19c2fab764e2c5'),
    'errata': (0, 'de590aee1dc9be7cbf38ad6316771fafa92ae03b02b6942888d2b49b87d20c08'),
    'transform chain:k=3 --d 2': (0, '8573415f62c341d2539a694cb867f5edf318c4543138a5c13adfed1f29454cbf'),
    'transform cerny:n=3 --d 2 --word c1 c2 c2 c1': (0, 'a782c8348a172c961c206e11d45d3183fe88f6d3caf2f3d0902451fd000e1178'),
    'solve grid:d=11,k=3': (0, '9e0a5a64e7bec63082f96eb7ea829573c85ae4518c411a9c9f067258de942b04'),
    'check grid:d=11,k=3': (0, '037c3617e4355e1228f9ae674561b4c9dfd23bac429c55eb23510447fa6df2c4'),
    'solve grid:d=17,k=2': (0, '105c32d10c8748be2f4a49e2d8aa01603be7d01841ba8206aec3c1c385456bb4'),
    'check grid:d=17,k=2': (0, '9128f873f35b8f2f719882289a985b31e263dc75d24704e59a947ab709d3757a'),
    'solve random:n=40,l=3,p=0.95,seed=1': (0, '317fbab42fdb87313a4fadf6b153d445296c0ad350d41037f8baf484adfbbd8e'),
    'check random:n=40,l=3,p=0.95,seed=1 --word a a a a a a a b a a a b c': (1, '8da5ebdb5b5cdac427ae026b823cd44b6dc31427375638559beb7920a482b9aa'),
}

GRID_TABLES = {
    (2, 1): 'a3ab2b2c6bead8cafb1c32cebbfebd1c9da4f42cd90ff44daf44f0759be6dcae',
    (2, 2): 'aa1cf5afcc4d5e59670941b19e4a494b8e745562ca254f02cc4bbe1330ec82ce',
    (2, 5): '5c6d9301bc191140d14505055dca0e67598a15feb8fe0dbf3f739ae41029bce0',
    (3, 1): '926dbda661862d7d5e7ed2b5ae949f503525af78f6e914d66bac114a0386bb53',
    (3, 4): '149339c35a5a6651f268b79f56e629174aa8f974185b4092548f5355edd31be0',
    (4, 3): 'bde2ef9080cf9f78c68fd1c697573f5ef451b391d4123322dec8e2a16b19189e',
    (5, 5): '8fe2432a829357f984bf37a32140ccf3a9971cca1b447315a52696f5386e3618',
    (6, 8): '02a29d156262583875fb536d1a8ca67cb3c58f32ca352f83dc63b5a9e585cd68',
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_pinned(argv, capsys):
    code = main(argv)
    assert (code, _digest(capsys.readouterr().out)) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("d, k", sorted(GRID_TABLES))
def test_grid_table_is_pinned(d, k):
    g = gen_grid(d, k)
    assert _digest(repr((g.letters, g.delta, g.state_names))) == GRID_TABLES[d, k]


def test_transform_word_writes_the_pinned_lines_to_out(tmp_path, capsys):
    argv = ["transform", "cerny:n=3", "--d", "2", "--word", "c1 c2 c2 c1"]
    path = tmp_path / "lifted.txt"
    code = main(argv + ["--out", str(path)])
    assert capsys.readouterr().out == ""
    assert (code, _digest(path.read_text())) == GOLDEN[" ".join(argv)]
