import hashlib

import numpy as np
import pytest

from popsi.synth import SynthConfig, generate

# The tensors of acceptance tests 7-10, and the sha256 of their dims, labels and
# entries as the generator gave them when it still built CSR slices: the random
# draws and the entries they make must not change.
CONFIGS = {
    "acceptance_07": [SynthConfig(seed=seed) for seed in range(20)],
    "acceptance_08": [
        SynthConfig(densities=(0.004, 0.05, 0.08), confound_item_fraction=0.0, seed=seed)
        for seed in range(20)
    ],
    "acceptance_09": [
        SynthConfig(m1=1463, m2=800, densities=(0.00142, 0.003, 0.003, 0.0035),
                    confound_item_fraction=0.05, confound_strength=0.02, seed=0)
    ],
    "acceptance_10": [SynthConfig(m1=80, m2=50, densities=(0.05, 0.08), seed=4)],
}
DIGESTS = {
    "acceptance_07": "d459789c79941ce45827fc437b2ec8908343e632339151dced022d8178852d23",
    "acceptance_08": "c778e74fb9a374378b68ac481f0b0d442d5ef2a0504722c78b6b79c7e4b9c01b",
    "acceptance_09": "cd558235248ff2aeab72977e449cdbf96516725d2ef32387a256d456e8d8e97c",
    "acceptance_10": "4cab3e2d74811ffc4c798651a4653b2eba387c0aed55a435e0df2068bb615148",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_generate_entries_are_pinned(name):
    digest = hashlib.sha256()
    for cfg in CONFIGS[name]:
        tensor = generate(cfg)
        entries = tensor.entries
        assert entries.dtype == np.int32 and entries.shape[1] == 3
        u, v, k = entries.astype(np.int64).T
        assert (np.diff((u * tensor.m2 + v) * tensor.n + k) > 0).all()  # unique and sorted
        digest.update(repr((tensor.dims, tensor.behavior_labels)).encode() + entries.tobytes())
    assert digest.hexdigest() == DIGESTS[name]
