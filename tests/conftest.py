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
