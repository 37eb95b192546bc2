import pyarrow as pa
import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = None
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()


@pytest.fixture
def ray_jobs(monkeypatch):
    """Counts Ray Data jobs (``StreamingExecutor.execute`` calls) run
    inside a ``with`` block::

        with ray_jobs() as jobs:
            ds.materialize()
        assert jobs.count == 1
    """
    import contextlib
    import types

    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    real = StreamingExecutor.execute

    @contextlib.contextmanager
    def counting():
        jobs = types.SimpleNamespace(count=0)

        def execute(self, *args, **kwargs):
            jobs.count += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(StreamingExecutor, "execute", execute)
        try:
            yield jobs
        finally:
            monkeypatch.setattr(StreamingExecutor, "execute", real)

    return counting


@pytest.fixture(scope="session")
def sharded_index(tmp_path_factory):
    """Builds a ``ShardedGraphIndex`` — the graph walks and literals
    are served from — over a list of (s, p, o) triples or a triples
    table, in a fresh scratch dir::

        gi = sharded_index(synth.LOOP)            # num_shards=1
        gi4 = sharded_index(table, num_shards=4)
    """
    import ray.data

    from pyrdf2vec_ray import synth
    from pyrdf2vec_ray.state.sharded_graph import ShardedGraphIndex

    def build(triples, num_shards: int = 1):
        table = (triples if isinstance(triples, pa.Table)
                 else synth.triples_table(triples))
        return ShardedGraphIndex.build(
            ray.data.from_arrow(table), num_shards=num_shards,
            scratch_dir=str(tmp_path_factory.mktemp("shards")),
        )

    return build
