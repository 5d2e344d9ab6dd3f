import pytest

from lstx import Engine, EngineConfig


def fast_config(**overrides) -> EngineConfig:
    """Small thresholds so maintenance paths trigger with tiny datasets."""
    cfg = EngineConfig(
        min_rows_per_file=4,
        small_file_trigger=4,
        delete_fraction_trigger=0.2,
        checkpoint_trigger=5,
        retention_seconds=3600.0,
        compaction_target_rows=1000,
        write_workers=3,
        read_workers=2,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def record_reads(monkeypatch, engine):
    """Paths of every object the engine's store is asked for from now on."""
    reads = []
    real = engine.store.get_object

    def recording(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(engine.store, "get_object", recording)
    return reads


@pytest.fixture
def make_engine(tmp_path):
    engines = []
    counter = [0]

    def make(config=None, fault_policy=None, subdir=None):
        counter[0] += 1
        root = str(tmp_path / (subdir or f"e{counter[0]}"))
        eng = Engine(root, config=config or fast_config(), fault_policy=fault_policy)
        engines.append(eng)
        return eng

    yield make
    for eng in engines:
        eng.close()


@pytest.fixture
def engine(make_engine):
    return make_engine()
