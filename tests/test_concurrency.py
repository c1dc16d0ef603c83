"""Reader/writer interleavings on the shared depth model.

The model promises readers a complete state: a prediction made during a
concurrent append must equal the prediction of some fully appended
prefix of the data, never a half-extended factor, and a snapshot held
across later writes keeps predicting exactly as when it was taken.
"""

import threading
import time

import numpy as np

from bathysurvey.gp import GpModel, HyperParams, optimize_hypers

H = HyperParams(2.0, 0.05, 8.0)


def _chunks(rng, count):
    out = []
    for _ in range(count):
        k = int(rng.integers(1, 6))
        out.append((rng.uniform(0, 60, (k, 2)), rng.uniform(2, 8, k)))
    return out


def test_readers_only_see_complete_states():
    rng = np.random.default_rng(70)
    chunks = _chunks(rng, 30)
    queries = rng.uniform(0, 60, (6, 2))

    # reference predictions for every complete prefix, built by replaying
    # the same incremental appends on a replica
    replica = GpModel(H)
    reference = {}
    for k, (x, y) in enumerate(chunks):
        replica.append(x, y)
        p = replica.predict(queries)
        reference[p.mean.tobytes() + p.variance.tobytes()] = k

    model = GpModel(H)
    model.append(*chunks[0])
    stop = threading.Event()
    observed = []
    errors = []

    def reader():
        local = set()
        try:
            while not stop.is_set():
                p = model.predict(queries)
                local.add(p.mean.tobytes() + p.variance.tobytes())
        except Exception as exc:  # pragma: no cover - surfaced in the assert
            errors.append(exc)
        observed.append(local)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for x, y in chunks[1:]:
        model.append(x, y)
        time.sleep(0.001)
    stop.set()
    for t in threads:
        t.join()

    assert not errors
    seen = set().union(*observed)
    assert seen  # readers did observe predictions mid-stream
    for key in seen:
        assert key in reference, "a reader observed a prediction matching no complete prefix"
    # several distinct states should have been caught in flight
    assert len({reference[k] for k in seen}) >= 3


def test_refit_during_appends_stays_consistent():
    rng = np.random.default_rng(71)
    base_x = rng.uniform(0, 40, (60, 2))
    base_y = 4.0 + np.sin(base_x[:, 0] / 6.0) + rng.normal(0, 0.1, 60)
    model = GpModel(H)
    model.append(base_x, base_y)
    chunks = _chunks(rng, 20)
    total = 60 + sum(len(y) for _, y in chunks)

    def writer():
        for x, y in chunks:
            model.append(x, y)
            time.sleep(0.0005)

    t = threading.Thread(target=writer)
    t.start()
    fit = optimize_hypers(model, max_iter=15)
    model.set_hypers(fit.hypers)
    t.join()

    assert model.n == total
    # the factor still agrees with a scratch rebuild of the final data
    fresh = GpModel(model.hypers)
    fresh.append(model.train_x, model.train_y)
    q = rng.uniform(0, 40, (5, 2))
    got = model.predict(q)
    want = fresh.predict(q)
    np.testing.assert_allclose(got.mean, want.mean, atol=1e-8)
    np.testing.assert_allclose(got.variance, want.variance, atol=1e-8)


def test_held_snapshot_unchanged_under_mean_subtraction():
    # every append moves the data mean; a snapshot taken earlier must keep
    # its own mean and weights while a writer appends and swaps hypers
    rng = np.random.default_rng(72)
    base_x = rng.uniform(0, 60, (20, 2))
    base_y = rng.uniform(2, 8, 20)
    chunks = _chunks(rng, 30)
    queries = rng.uniform(0, 60, (6, 2))

    def key(st):
        p = st.predict(queries)
        return p.mean.tobytes() + p.variance.tobytes() + st.predict_mean(queries).tobytes()

    replica = GpModel(H)
    replica.append(base_x, base_y)
    want = key(replica.snapshot())

    model = GpModel(H)
    model.append(base_x, base_y)
    old = model.snapshot()
    stop = threading.Event()
    observed = []
    errors = []

    def reader():
        try:
            while not stop.is_set():
                observed.append(key(old))
        except Exception as exc:  # pragma: no cover - surfaced in the assert
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    for x, y in chunks:
        model.append(x, y)
        time.sleep(0.001)
    model.set_hypers(HyperParams(1.0, 0.02, 15.0))
    stop.set()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()

    assert not errors
    assert observed
    assert set(observed) == {want}
    assert key(old) == want
    assert model.n == 20 + sum(len(y) for _, y in chunks)
