"""Unit tests for repro.util: bits, rng, tables, errors."""

import numpy as np
import pytest

from repro.util import (
    BandwidthExceeded,
    ReproError,
    Table,
    ValidationError,
    bits_for_int,
    bits_for_payload,
    derive_seed,
    ensure_rng,
    format_float,
    message_bit_budget,
    rng_from_seed,
    spawn_rngs,
)
from repro.util import bits
from repro.util.rng import child_rng, spawn_seeds


class TestBits:
    def test_zero_costs_two_bits(self):
        assert bits_for_int(0) == 2  # 1 magnitude + 1 sign

    def test_small_ints(self):
        assert bits_for_int(1) == 2
        assert bits_for_int(7) == 4
        assert bits_for_int(8) == 5

    def test_negative_same_as_positive(self):
        assert bits_for_int(-7) == bits_for_int(7)

    def test_none_is_one_bit(self):
        assert bits_for_payload(None) == 1

    def test_bool_is_one_bit(self):
        assert bits_for_payload(True) == 1

    def test_string_utf8(self):
        assert bits_for_payload("ab") == 16

    def test_tuple_sums_elements(self):
        assert bits_for_payload((1, 2)) == bits_for_int(1) + bits_for_int(2)

    def test_nested_sequences(self):
        flat = bits_for_payload((1, 2, 3))
        nested = bits_for_payload((1, (2, 3)))
        assert flat == nested

    def test_float_is_64_bits(self):
        assert bits_for_payload(1.5) == 64

    def test_numpy_scalar(self):
        assert bits_for_payload(np.int64(7)) == bits_for_int(7)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            bits_for_payload(object())

    def test_budget_grows_with_n(self):
        assert message_bit_budget(1024) == 8 * 10
        assert message_bit_budget(1 << 20) > message_bit_budget(1 << 10)

    def test_budget_tiny_n_floored(self):
        assert message_bit_budget(1) == 32
        assert message_bit_budget(8) == 32  # floor at 4 log-units

    def test_budget_factor(self, monkeypatch):
        assert message_bit_budget(1024) == bits.BANDWIDTH_FACTOR * 10
        monkeypatch.setattr(bits, "BANDWIDTH_FACTOR", 4)
        assert message_bit_budget(1024) == 40


class TestRng:
    def test_seeded_reproducible(self):
        a = rng_from_seed(42).random(5)
        b = rng_from_seed(42).random(5)
        assert np.array_equal(a, b)

    def test_ensure_rng_accepts_int(self):
        assert ensure_rng(3).integers(10) == ensure_rng(3).integers(10)

    def test_ensure_rng_passes_generator_through(self):
        g = rng_from_seed(1)
        assert ensure_rng(g) is g

    def test_ensure_rng_rejects_junk(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_independent_streams(self):
        kids = spawn_rngs(rng_from_seed(7), 3)
        draws = [k.random(4).tolist() for k in kids]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(rng_from_seed(0), -1)
        with pytest.raises(ValueError):
            spawn_seeds(rng_from_seed(0), -1)

    def test_child_rng_of_spawn_seeds_is_the_spawn_rngs_child(self):
        a, b = rng_from_seed(7), rng_from_seed(7)
        kids = spawn_rngs(a, 3)
        seeds = spawn_seeds(b, 3)
        assert b.bit_generator.seed_seq.n_children_spawned == 3
        for kid, seed in zip(kids, seeds):
            assert child_rng(b, seed).random(4).tolist() == kid.random(4).tolist()

    def test_derive_seed_stable(self):
        assert derive_seed(5, "edge", 1, 2) == derive_seed(5, "edge", 1, 2)

    def test_derive_seed_distinguishes_keys(self):
        # Concatenation ambiguity ("ab","c") vs ("a","bc") must not collide.
        assert derive_seed(5, "ab", "c") != derive_seed(5, "a", "bc")

    def test_derive_seed_depends_on_root(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestTables:
    def test_render_alignment(self):
        t = Table(["name", "val"], title="demo")
        t.add_row(["alpha", 1])
        t.add_row(["b", 22])
        out = t.render()
        assert "demo" in out
        lines = out.splitlines()
        assert len(lines) == 5  # title, header, rule, 2 rows

    def test_row_width_mismatch(self):
        t = Table(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_format_float(self):
        assert format_float(3.0) == "3"
        assert format_float(3.14159, digits=2) == "3.14"
        assert format_float(7) == "7"
        assert format_float(None) == "-"


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ValidationError, ReproError)
        assert issubclass(BandwidthExceeded, ReproError)

    def test_validation_details(self):
        err = ValidationError("bad", got=3, want=5)
        assert err.details == {"got": 3, "want": 5}
