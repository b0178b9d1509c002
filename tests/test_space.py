import numpy as np
import pytest

from vdtptune.space import (
    DEFAULT_BOUNDS,
    Bounds,
    VdtpConfig,
    bound_violations,
    quantize_for_protocol,
)


def test_config_array_round_trip():
    cfg = VdtpConfig(41358.0, 3.0, 10.0)
    assert VdtpConfig.from_array(cfg.as_array()) == cfg


def test_from_array_rejects_wrong_length():
    with pytest.raises(ValueError):
        VdtpConfig.from_array([1.0, 2.0])


def test_default_bounds_box():
    assert DEFAULT_BOUNDS.lower == (128.0, 1.0, 1.0)
    assert DEFAULT_BOUNDS.upper == (524288.0, 250.0, 10.0)
    assert DEFAULT_BOUNDS.dim == 3


def test_bounds_reject_inverted_axis():
    with pytest.raises(ValueError):
        Bounds((0.0, 5.0), (1.0, 5.0))
    with pytest.raises(ValueError, match="same length"):
        Bounds((0.0, 0.0), (1.0, 1.0, 1.0))


def test_unit_mapping_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = rng.random(3)
        x = DEFAULT_BOUNDS.from_unit(u)
        lo, hi = DEFAULT_BOUNDS.lower_array(), DEFAULT_BOUNDS.upper_array()
        assert np.allclose((x - lo) / (hi - lo), u, atol=1e-12)
        assert np.all(x >= DEFAULT_BOUNDS.lower_array())
        assert np.all(x <= DEFAULT_BOUNDS.upper_array())


def test_unit_mapping_corners():
    assert tuple(DEFAULT_BOUNDS.from_unit([0, 0, 0])) == DEFAULT_BOUNDS.lower
    assert tuple(DEFAULT_BOUNDS.from_unit([1, 1, 1])) == DEFAULT_BOUNDS.upper


def test_quantize_rounds_half_up():
    chunk, attempts, timeout = quantize_for_protocol(VdtpConfig(1024.5, 249.5, 5.5))
    assert chunk == 1025
    assert attempts == 250
    assert timeout == 5.5
    # banker's rounding would give 250 here
    assert quantize_for_protocol(VdtpConfig(250.5, 1, 1))[0] != 250


def test_quantize_floors():
    chunk, attempts, _ = quantize_for_protocol(VdtpConfig(1.0, 0.2, 1.0))
    assert chunk == 128
    assert attempts == 1


def test_quantize_preserves_timeout_exactly():
    assert quantize_for_protocol(VdtpConfig(4096, 3, 7.125))[2] == 7.125


def test_bound_violations_name_each_axis():
    msgs = bound_violations(VdtpConfig(100.0, 300.0, 0.5))
    assert len(msgs) == 3
    assert any("chunk_size" in m for m in msgs)
    assert any("total_attempts" in m for m in msgs)
    assert any("retransmission_time" in m for m in msgs)
    assert bound_violations(VdtpConfig(25600, 8, 8)) == []
