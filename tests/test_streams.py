import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkbudget._streams import KeyedStreams, _index_bytes, _seed_words
from rkbudget.cli import DEFAULT_SEED

# A numpy release may change what default_rng((seed, t)) gives (NEP 19).  The
# campaigns and toy studies promise exactly those streams, and KeyedStreams
# restates SeedSequence's hash by hand, so such a release must fail here.
NEP19 = ("rkbudget._streams.KeyedStreams no longer matches np.random.default_rng on numpy "
         f"{np.__version__}: update its SeedSequence hash to the new default_rng")

# one-, two-, three- and five-word seeds, the word boundaries, and the CLI default
SEEDS = [0, 1, 1000, 2**31 + 5, 2**32 - 1, 2**32, 2**40 + 17, 2**64 + 3, 2**73 + 12345, 2**128 + 9, DEFAULT_SEED]


def assert_matches_default_rng(key, indices, draws=3, parts=()):
    # each of parts, in turn, slices the streams and their indices
    words = _seed_words(key, indices)
    streams = KeyedStreams(key, indices)
    for part in parts:
        words, streams, indices = words[part], streams[part], indices[part]
    assert words.shape == (len(streams), 4) == (len(indices), 4)
    for i, seed_words, rng in zip(indices, words, streams, strict=True):
        expected_words = np.random.SeedSequence((*key, i)).generate_state(4, np.uint64)
        assert seed_words.tolist() == expected_words.tolist(), NEP19
        reference = np.random.default_rng((*key, i))
        assert rng.bit_generator.state == reference.bit_generator.state, NEP19
        assert rng.standard_normal(draws).tobytes() == reference.standard_normal(draws).tobytes(), NEP19


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", [0, 1, 1000])
def test_campaign_streams_equal_default_rng(seed, trials):
    assert_matches_default_rng((seed,), range(trials))


@pytest.mark.parametrize("seed", SEEDS)
def test_toy_study_streams_equal_default_rng(seed):
    # (seed, nv, i) keys, over a chunk that does not start at draw 0
    for nv in (1, 10, 2**32 + 1):
        assert_matches_default_rng((seed, nv), range(29, 41))


# empty, past the end, from the end, and a slice of a slice
@pytest.mark.parametrize(
    "parts",
    [(slice(4, 4),), (slice(9, 30),), (slice(30, 40),), (slice(-5, None),), (slice(2, 10), slice(3, 6)),
     (slice(1, None), slice(2, None), slice(None, 1))],
    ids=["empty", "past-the-end", "all-past-the-end", "from-the-end", "slice-of-slice", "slice-of-slice-of-slice"],
)
def test_sliced_streams_equal_default_rng(parts):
    assert_matches_default_rng((DEFAULT_SEED, 16), range(29, 41), parts=parts)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), start=st.integers(0, 2**32 - 4))
def test_streams_equal_default_rng_for_any_seed(seed, start):
    assert_matches_default_rng((seed,), range(start, start + 3), draws=2)


def test_each_iteration_restarts_the_streams():
    streams = KeyedStreams((5,), range(3))
    first = [rng.standard_normal(4).tobytes() for rng in streams]
    assert [rng.standard_normal(4).tobytes() for rng in streams] == first


def test_interleaved_iterations_draw_their_own_streams():
    # every iteration owns its generator, so a caller taking streams while
    # another caller draws (say, on another thread) leaves those draws alone
    a, b = KeyedStreams((5,), range(3)), KeyedStreams((6,), range(3))
    expected = [rng.standard_normal(4).tobytes() for rng in a]
    drawn = [rng_a.standard_normal(4).tobytes() for rng_a, _ in zip(a, b)]
    assert drawn == expected


def test_taken_streams_are_distinct_generators_drawn_in_any_order():
    # every index gets a generator of its own, so streams taken all at once
    # draw what default_rng draws, whichever is drawn from first
    key, indices = (DEFAULT_SEED, 3), range(5, 12)
    streams = list(KeyedStreams(key, indices))
    assert len({id(rng) for rng in streams}) == len(indices)
    firsts = [rng.standard_normal(3) for rng in reversed(streams)][::-1]  # the last stream first
    seconds = [rng.standard_normal(3) for rng in streams]  # then each again, in index order
    for i, first, second in zip(indices, firsts, seconds, strict=True):
        expected = np.random.default_rng((*key, i)).standard_normal(6)
        assert np.concatenate([first, second]).tobytes() == expected.tobytes(), NEP19


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, np.float64(2.0), None], ids=repr)
def test_bad_seeds_raise_as_default_rng_does(seed):
    with pytest.raises(Exception) as expected:
        np.random.default_rng((seed, 0))
    with pytest.raises(expected.type) as raised:
        KeyedStreams((seed,), range(3))
    if expected.type is ValueError or isinstance(seed, float):
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("indices", [range(-1, 3), range(0, 6, 2), range(2**32 - 1, 2**32 + 1)])
def test_indices_must_be_one_word_unit_step_ranges(indices):
    with pytest.raises(ValueError, match="unit-step range within"):
        KeyedStreams((1,), indices)


@pytest.mark.parametrize("key", [(0,), (DEFAULT_SEED,), (2**40,), (5, 7), (2**200, 3)])
def test_seeding_holds_what_index_bytes_counts(key):
    # per index, up to a few kilobytes of array headers
    n = 20000
    KeyedStreams(key, range(n))  # first-use caches
    tracemalloc.start()
    try:
        KeyedStreams(key, range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * _index_bytes(key) <= peak <= n * _index_bytes(key) + 8192
