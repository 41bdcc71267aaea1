import numpy as np
import pytest

from dpselect import rng


def test_same_stream_reproduces():
    a = rng.generator(7, rng.STREAM_NOISE, 3).random(16)
    b = rng.generator(7, rng.STREAM_NOISE, 3).random(16)
    np.testing.assert_array_equal(a, b)


def test_streams_are_independent():
    a = rng.generator(7, rng.STREAM_NOISE, 3).random(16)
    b = rng.generator(7, rng.STREAM_NOISE, 4).random(16)
    c = rng.generator(7, rng.STREAM_BATCH, 3).random(16)
    d = rng.generator(8, rng.STREAM_NOISE, 3).random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derive_seed_deterministic_and_distinct():
    assert rng.derive_seed(5, 1, 2) == rng.derive_seed(5, 1, 2)
    seeds = {rng.derive_seed(5, 1, t) for t in range(100)}
    assert len(seeds) == 100


def test_seeds_must_not_be_none():
    # numpy would seed a None from OS entropy, so no run could be repeated.
    with pytest.raises(ValueError):
        rng.generator(None, rng.STREAM_NOISE)
    with pytest.raises(ValueError):
        rng.derive_seed(None)
    with pytest.raises(ValueError):
        rng.RunStreams(None)


# RunStreams is checked against numpy's own SeedSequence and PCG64, not
# against generator/derive_seed, so these tests also fail if numpy ever
# changes how it seeds.
def numpy_generator(seed, *key):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def numpy_child_seed(seed, *key):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


STREAM_IDS = (rng.STREAM_DATA, rng.STREAM_INIT, rng.STREAM_BATCH, rng.STREAM_NOISE,
              rng.STREAM_DROPOUT, rng.STREAM_SCORE)


def assert_streams_match(seed, steps, layers=(0, 1, 2), parents=(rng.STREAM_DROPOUT,)):
    streams = rng.RunStreams(seed)
    for t in steps:
        assert np.array_equal(
            streams.batch(t).random(7), numpy_generator(seed, rng.STREAM_BATCH, t).random(7)
        ), ("batch", seed, t)
        want = numpy_generator(numpy_child_seed(seed, rng.STREAM_NOISE, t)).normal(size=7)
        assert np.array_equal(streams.noise(t).normal(size=7), want), ("noise", seed, t)
        for parent in parents:
            child = numpy_child_seed(seed, parent, t)
            for layer in layers:
                want = numpy_generator(child, rng.STREAM_DROPOUT, layer)
                got = streams.dropout(t, layer, parent)
                assert np.array_equal(got.random(5), want.random(5)), ("dropout", seed, t, layer)
                assert np.array_equal(got.normal(size=3), want.normal(size=3))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_run_streams_match_numpy_over_a_run(seed):
    # 1..400 crosses the first chunk boundary.
    assert 400 > rng.CHUNK_STEPS
    assert_streams_match(seed, range(1, 401))


def test_run_streams_match_numpy_for_every_stream_id():
    assert_streams_match(17, [0, 1, 5, rng.CHUNK_STEPS + 3], parents=STREAM_IDS)


def test_run_streams_match_numpy_at_the_last_steps():
    # A chunk that starts 3 steps below 2^32 holds only those 3 steps.
    assert_streams_match(5, [2**32 - 3, 2**32 - 1, 2**32 - 2])


def test_noise_child_seed_below_one_key_word():
    # With an empty spawn key numpy does not zero-pad the entropy, so a
    # child seed below 2^32 hashes one word where others hash two.
    seed, step = 0, 70_188_114
    assert numpy_child_seed(seed, rng.STREAM_NOISE, step) < 2**32
    assert_streams_match(seed, [step], layers=())


def test_run_streams_steps_in_any_order():
    steps = [3, 1, rng.CHUNK_STEPS + 9, 2, rng.CHUNK_STEPS + 9, 0, 3]
    assert_streams_match(11, steps, layers=(1,))


def test_each_stream_keeps_its_own_generator():
    streams = rng.RunStreams(2)
    noise = streams.noise(4)
    streams.batch(4).random(10)
    streams.dropout(4, 0).random(10)
    want = numpy_generator(numpy_child_seed(2, rng.STREAM_NOISE, 4)).normal(size=6)
    assert np.array_equal(noise.normal(size=6), want)


def test_a_held_generator_is_not_reseeded_by_the_next_call():
    streams = rng.RunStreams(3)
    layer0 = streams.dropout(5, 0)
    streams.dropout(5, 1).random(10)
    step1 = streams.batch(1)
    streams.batch(2).random(10)
    want = numpy_generator(numpy_child_seed(3, rng.STREAM_DROPOUT, 5), rng.STREAM_DROPOUT, 0)
    assert np.array_equal(layer0.random(6), want.random(6))
    assert np.array_equal(step1.random(6), numpy_generator(3, rng.STREAM_BATCH, 1).random(6))


def test_run_streams_reject_negative_keys():
    with pytest.raises(ValueError, match="seeds and stream keys must be non-negative"):
        rng.RunStreams(-1)
    with pytest.raises(ValueError, match="seeds and stream keys must be non-negative"):
        rng.RunStreams(1).dropout(0, -1)


def test_step_words_seed_only_pcg64():
    words = rng._StepWords(np.zeros(4, dtype=np.uint64))
    for n_words, dtype in [(4, np.uint32), (2, np.uint64)]:
        with pytest.raises(ValueError, match="a step seeds only PCG64: four uint64 words"):
            words.generate_state(n_words, dtype)


def test_run_streams_reject_bad_steps():
    streams = rng.RunStreams(1)
    with pytest.raises(ValueError):
        streams.batch(-1)
    with pytest.raises(ValueError):
        streams.noise(2**64)
    with pytest.raises(ValueError):
        streams.batch(2**32)
