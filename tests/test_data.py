import re

import numpy as np
import pytest

from qubitnet import data

WDBC = "data/wdbc.csv"


def make_row(diag, features, row_id=1):
    # UCI layout: id, diagnosis, 30 features (10 mean + 20 padding)
    feats = list(features) + [0.0] * 20
    return ",".join([str(row_id), diag] + [str(v) for v in feats])


def write_csv(tmp_path, rows, name="d.csv"):
    p = tmp_path / name
    p.write_text("\n".join(rows) + "\n")
    return p


def test_load_full_wdbc():
    samples = data.load_wbc_csv(WDBC)
    assert len(samples) == 569
    labels = [s.label for s in samples]
    assert labels.count(0) == 357  # benign
    assert labels.count(1) == 212  # malignant


def test_wdbc_radius_bounds():
    samples = data.load_wbc_csv(WDBC)
    bounds = data.compute_bounds(samples)
    assert bounds.mins[0] == pytest.approx(6.981, abs=1e-3)
    assert bounds.maxs[0] == pytest.approx(28.11, abs=1e-2)


def test_diagnosis_codes(tmp_path):
    p = write_csv(tmp_path, [make_row("M", range(10)), make_row("B", range(10))])
    samples = data.load_wbc_csv(p)
    assert samples[0].label == 1
    assert samples[1].label == 0


def test_load_preserves_row_order_and_is_deterministic():
    a = data.load_wbc_csv(WDBC)
    b = data.load_wbc_csv(WDBC)
    assert a == b


def test_load_tolerates_header(tmp_path):
    p = write_csv(tmp_path, ["id,diagnosis," + ",".join(f"f{i}" for i in range(30)),
                             make_row("B", range(10))])
    assert len(data.load_wbc_csv(p)) == 1


def test_empty_file_is_error(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError):
        data.load_wbc_csv(p)


def test_missing_file_is_error(tmp_path):
    with pytest.raises(OSError):
        data.load_wbc_csv(tmp_path / "nope.csv")


def test_unknown_diagnosis_reports_row(tmp_path):
    p = write_csv(tmp_path, [make_row("B", range(10)), make_row("X", range(10))])
    with pytest.raises(ValueError, match="row 2"):
        data.load_wbc_csv(p)


def test_non_numeric_feature_reports_row(tmp_path):
    bad = make_row("B", range(10)).replace("3,", "oops,", 1)
    p = write_csv(tmp_path, [bad])
    with pytest.raises(ValueError, match="row 1"):
        data.load_wbc_csv(p)


def test_non_finite_feature_reports_row(tmp_path):
    good = make_row("B", range(10))
    for bad in ("nan", "inf", "-inf"):
        p = write_csv(tmp_path, [good, make_row("M", range(10)).replace("3,", bad + ",", 1)])
        with pytest.raises(ValueError, match="row 2: non-finite"):
            data.load_wbc_csv(p)


def test_compute_bounds_simple():
    s0 = data.Sample(tuple([0.0] + [5.0] * 9), 0)
    s1 = data.Sample(tuple([1.0] + [5.0] * 9), 1)
    bounds = data.compute_bounds([s0, s1])
    assert bounds.mins[0] == 0.0
    assert bounds.maxs[0] == 1.0


def test_compute_bounds_single_sample():
    s = data.Sample(tuple(float(i) for i in range(10)), 0)
    bounds = data.compute_bounds([s])
    assert bounds.mins == s.features
    assert bounds.maxs == s.features


def test_compute_bounds_empty_is_error():
    with pytest.raises(ValueError):
        data.compute_bounds([])


def test_encode_endpoints_and_midpoint():
    lo = data.Sample(tuple([0.0] * 10), 0)
    hi = data.Sample(tuple([2.0] * 10), 1)
    mid = data.Sample(tuple([1.0] * 10), 0)
    bounds = data.compute_bounds([lo, hi])
    assert np.all(data.encode(lo, bounds) == 0.0)
    assert np.all(data.encode(hi, bounds) == np.pi)
    assert np.allclose(data.encode(mid, bounds), np.pi / 2)


def test_encode_clamps_out_of_bounds():
    bounds = data.FeatureBounds(tuple([0.0] * 10), tuple([1.0] * 10))
    wild = data.Sample(tuple([-5.0] * 5 + [42.0] * 5), 0)
    angles = data.encode(wild, bounds)
    assert np.all(angles[:5] == 0.0)
    assert np.all(angles[5:] == np.pi)


def test_encode_degenerate_feature_is_zero():
    bounds = data.FeatureBounds(tuple([3.0] * 10), tuple([3.0] * 10))
    s = data.Sample(tuple([3.0] * 10), 0)
    assert np.all(data.encode(s, bounds) == 0.0)


def test_encode_is_monotone_per_feature():
    samples = data.load_wbc_csv(WDBC)[:50]
    bounds = data.compute_bounds(samples)
    rng = np.random.default_rng(9)
    base = list(samples[0].features)
    for _ in range(20):
        k = int(rng.integers(10))
        lo, hi = sorted(rng.uniform(bounds.mins[k], bounds.maxs[k], 2))
        fa, fb = list(base), list(base)
        fa[k], fb[k] = lo, hi
        ea = data.encode(data.Sample(tuple(fa), 0), bounds)
        eb = data.encode(data.Sample(tuple(fb), 0), bounds)
        assert ea[k] <= eb[k]


def test_split_prefix():
    samples = data.load_wbc_csv(WDBC)
    train, test = data.split(samples, 100)
    assert len(train) == 100 and len(test) == 469
    assert train == samples[:100]


def test_split_whole_set():
    samples = data.load_wbc_csv(WDBC)
    train, test = data.split(samples, len(samples))
    assert len(train) == 569 and test == []


def test_split_boundary_one():
    samples = data.load_wbc_csv(WDBC)[:5]
    train, test = data.split(samples, 1)
    assert len(train) == 1 and len(test) == 4


def test_split_rejects_bad_count():
    samples = data.load_wbc_csv(WDBC)[:5]
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            data.split(samples, bad)


def test_shuffle_is_seeded_permutation():
    samples = data.load_wbc_csv(WDBC)[:20]
    a = data.shuffled(samples, 7)
    b = data.shuffled(samples, 7)
    assert a == b
    assert sorted(map(id, a)) == sorted(map(id, samples))


def test_extract_patch_whole_image():
    img = np.arange(16).reshape(4, 4) / 15.0
    patch = data.extract_patch(img, 0, 0)
    assert np.allclose(patch.pixels, img)


def test_extract_patch_offset_window():
    img = np.linspace(0, 1, 64).reshape(8, 8)
    patch = data.extract_patch(img, 2, 2)
    assert np.allclose(patch.pixels, img[2:6, 2:6])


def test_extract_patch_out_of_bounds():
    img = np.zeros((5, 5))
    with pytest.raises(ValueError):
        data.extract_patch(img, 2, 2)


def test_patch_to_angles_endpoints():
    zeros = data.GrayPatch(tuple(tuple([0.0] * 4) for _ in range(4)))
    ones = data.GrayPatch(tuple(tuple([1.0] * 4) for _ in range(4)))
    assert np.all(data.patch_to_angles(zeros) == 0.0)
    assert np.all(data.patch_to_angles(ones) == np.pi)


def test_patch_to_angles_midpoint_row_major():
    rows = [[0.0] * 4 for _ in range(4)]
    rows[1][2] = 0.5
    patch = data.GrayPatch(tuple(tuple(r) for r in rows))
    angles = data.patch_to_angles(patch)
    assert angles[6] == pytest.approx(np.pi / 2)
    assert len(angles) == 16


def test_load_pgm_ascii(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_text("P2\n# comment\n3 2\n255\n0 128 255\n64 32 16\n")
    img = data.load_pgm(p)
    assert img.shape == (2, 3)
    assert img[0, 2] == 1.0
    assert img[0, 1] == pytest.approx(128 / 255)


def test_load_pgm_binary(tmp_path):
    p = tmp_path / "b.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(range(16)))
    img = data.load_pgm(p)
    assert img.shape == (4, 4)
    assert img[3, 3] == pytest.approx(15 / 255)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"P2\n3 2\n255\n0 128 255\n64 nan 16\n", "pixel (row 1, col 1) is 'nan'"),
        (b"P2\n3 2\n255\n0 128 300\n64 32 16\n", "pixel (row 0, col 2) is '300'"),
        (b"P5\n2 1\n100\n\x05\xc8", "pixel (row 0, col 1) is 200"),
    ],
    ids=["p2-nan", "p2-above-maxval", "p5-above-maxval"],
)
def test_load_pgm_rejects_bad_pixel_with_position(content, message, tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}, not an integer in 0..")):
        data.load_pgm(p)


def test_load_pgm_rejects_other_formats(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(ValueError):
        data.load_pgm(p)
