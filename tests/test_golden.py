"""Golden digests: the metrics CSV, theta JSON and saved config.json of a
short run of every preset, of a link-delay network with one-link routers,
capacity drops and cycles (`forced_hops`), and of triangle with a
memoryless trace, beta = 0 (`memoryless`), pinned by SHA-256.

A change that only makes the program faster or smaller must leave these
files byte-identical. The digests hold for CPython 3.11 on x86-64 Linux;
another interpreter version or platform may format or round a float
differently. Regenerate them with `python3 scripts/golden_digests.py`
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
        "abc9bab4cd802d4f2cfd0a8b6cb3b15d91fba39d5f0995676cb413a12bbe376a",
        "9d30cfceca78fb510e8e953a9b6d682b9e54bdc1cf2f0ed6c63fd54c35c69baa",
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
        "f4d0284de936d3932bd426c8640419ff67cc95fb10595517ffaa0e56b6a488d8",
        "d0146151353e8b6f8c50acc3f674c5c43e0579b74553dee24f4632b5bb9ca11e",
        "f44bd4302b8cb5c3642b24d1897cb95c8b5d35a12874a6407b44b911e36059c3",
    ),
    "forced_hops": (
        "ebfb1efa9e0c55556a19b97487bc3f549f14899015fa395bb0f2c86ad60d92e3",
        "2e73550add7c1c69e3e8e29549a86dcefcb392089fd7d832517303a4c9faa411",
        "fec125876d2bd68fa7f8b0f9e90f1628e6415a0e19a36e1e76a5d8872ac0d5df",
    ),
    "memoryless": (
        "3e145a97d9efb7d538683cb3e41f46f2565aa02364f15621c9a2fadef4d9c595",
        "0d4290c016709643fa1de295022b35476203f1916ccffa180beafdde405cbfc3",
        "db59df2fa3ff8f12e47671e62e27807819050a729b6a7ff53db77af9c99f06af",
    ),
}


def _script():
    spec = importlib.util.spec_from_file_location("golden_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", (*PRESET_NAMES, "forced_hops", "memoryless"))
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
