"""Golden digests: the metrics CSV, theta JSON and saved config.json of a
short run of every preset, of a link-delay network with one-link routers,
capacity drops and cycles (`forced_hops`), of triangle with a memoryless
trace, beta = 0 (`memoryless`), and of six_node tracking a 5-slot row
(`wide_tracked`), pinned by SHA-256.

A change that only makes the program faster or smaller must leave these
files byte-identical. The digests hold for CPython 3.11, 3.12 and 3.13
on x86-64 Linux, which print the same table; another platform may format
or round a float differently. Regenerate them with `python3 scripts/golden_digests.py`
only for a change meant to alter some run's output, and record why in
CHANGES.md. braess1's learning amplifies rounding, so any change to the
order or precision of its arithmetic moves its digests.
"""
import importlib.util
from pathlib import Path

import pytest

from gradroute.presets import PRESET_NAMES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_digests.py"

GOLDEN = {
    "triangle": (
        "ddc3c22699895d146dfa97d65d6ac4be9536f4cd2666caf6d6cc1a7cc925ef1c",
        "c61e060585e5c9702d8e158eb5f52b0d89b22e14492d71dd804b8b38d1853ff4",
        "6ce9ee1e10b8441dc813de89ff2a3569deb6f497f6e3923cff89c9aff4d63467",
    ),
    "contention": (
        "96fa755b47aa567070f58b1e1084bd773e767c5df8c3fa1464920370f7cd9918",
        "890a7a55486287bb81cf5e9768170d42034472f72c43dc42964d785293df3150",
        "f1274de88140e61a9f6928086d8843f2f2d913a041ae03da1a3924b9f3955bee",
    ),
    "six_node": (
        "7d93ce9866245931e017eb82c75d610d261695e9f34b4e3dd6658d5e232175cb",
        "c24a6f30f7c386bcb1915a10d7681bd0d140d8ecb2462c5fe2d2afd98ec7cbda",
        "6339c97d46cdbcb9fdaf044a59c948ddabbf346758dc6095ec62bee4d666d8e3",
    ),
    "braess1": (
        "1cc99de161a83f67989ecf83a867bb7d90add24ff880affd8c779288348abf46",
        "b8ed5bffe73d6f9f25ccc6089d5b34e4397033aba4c3bd023e51b840043112df",
        "f44bd4302b8cb5c3642b24d1897cb95c8b5d35a12874a6407b44b911e36059c3",
    ),
    "forced_hops": (
        "25b57105ce7f38dbd9ef85ddd192cf378dd9cf53720d4338c016a4db4a434054",
        "dac1aa1d339dad9837b21f5bebc3a9fa107a073beef7d115e1cead2edbc34d16",
        "fec125876d2bd68fa7f8b0f9e90f1628e6415a0e19a36e1e76a5d8872ac0d5df",
    ),
    "memoryless": (
        "3e145a97d9efb7d538683cb3e41f46f2565aa02364f15621c9a2fadef4d9c595",
        "0d4290c016709643fa1de295022b35476203f1916ccffa180beafdde405cbfc3",
        "db59df2fa3ff8f12e47671e62e27807819050a729b6a7ff53db77af9c99f06af",
    ),
    "wide_tracked": (
        "ef9229f7d9935baaf05b7e7830805ff376539893539183d48edfa81550c6fee5",
        "ba29f38ec367585fd7119c8033ed7b509dc6a8f7651d7453570bbf2d4478a17d",
        "f039fbe93536c0d072483c24dbc8294303b7bfb9b5827d4fd6714d54008203a1",
    ),
}


def _script():
    spec = importlib.util.spec_from_file_location("golden_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", (*PRESET_NAMES, "forced_hops", "memoryless", "wide_tracked"))
def test_outputs_match_golden_digests(name, tmp_path):
    script = _script()
    assert set(script.GOLDEN_NAMES) == set(GOLDEN)
    # the window must evict, or the moving average's eviction goes unchecked
    assert script.MA_WINDOW < script.STEPS // script.SAMPLE_EVERY
    csv_sha, theta_sha, config_sha = script.golden_digests(name, tmp_path)
    hint = (
        f"{name}: outputs differ from the golden run; if the change is meant "
        "to alter them, regenerate with `python3 scripts/golden_digests.py` "
        "and record why in CHANGES.md"
    )
    assert csv_sha == GOLDEN[name][0], hint
    assert theta_sha == GOLDEN[name][1], hint
    assert config_sha == GOLDEN[name][2], hint
