import numpy as np
import pytest

from rsfsmooth import (DataError, LaplacianOperator, SmoothingProblem, _native, _twins,
                       gen_graph, load_signal, psnr, solve_exact_cg, synthetic_signal)

from conftest import path_graph, random_connected_graph, using_kernels


class TestLoadSignal:
    def test_plain_lines(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.5\n-2\n0.25\n")
        np.testing.assert_array_equal(load_signal(str(path), 3), [1.5, -2.0, 0.25])

    def test_node_value_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("2,30\n0,10\n1,20\n")
        np.testing.assert_array_equal(load_signal(str(path), 3), [10.0, 20.0, 30.0])

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1\n2\n")
        with pytest.raises(DataError, match="expected 3"):
            load_signal(str(path), 3)

    def test_incomplete_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0,10\n2,30\n")
        with pytest.raises(DataError, match="cover"):
            load_signal(str(path), 3)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1\nzzz\n")
        with pytest.raises(DataError, match="line 2"):
            load_signal(str(path), 2)


class TestSynthetic:
    def test_gaussian_deterministic(self):
        g = path_graph(20)
        a = synthetic_signal(g, "gaussian", seed=4)
        b = synthetic_signal(g, "gaussian", seed=4)
        c = synthetic_signal(g, "gaussian", seed=5)
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_smooth_has_unit_peak_and_low_frequency(self):
        g = random_connected_graph(40, extra_edges=60, rng=np.random.default_rng(1))
        x = synthetic_signal(g, "smooth")
        assert np.max(np.abs(x)) == pytest.approx(1.0)
        lap = LaplacianOperator(g)
        rng = np.random.default_rng(2)
        rough = rng.standard_normal(g.n)
        # Rayleigh quotient far below that of a random signal
        assert (x @ lap.apply(x)) / (x @ x) < 0.5 * (rough @ lap.apply(rough)) / (rough @ rough)

    def test_constant(self):
        g = path_graph(4)
        np.testing.assert_array_equal(synthetic_signal(g, "constant", value=2.5),
                                      np.full(4, 2.5))

    def test_a_key_the_kind_does_not_take_is_refused(self):
        g = path_graph(3)
        for kind in ("gaussian", "smooth"):
            with pytest.raises(DataError) as err:
                synthetic_signal(g, kind, value=3)
            assert str(err.value) == f"unknown {kind} signal key 'value' (it takes none)"
        np.testing.assert_array_equal(synthetic_signal(g, "constant"), np.ones(3))

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="unknown"):
            synthetic_signal(path_graph(3), "sawtooth")

    def test_smooth_needs_two_vertices(self):
        with pytest.raises(DataError, match=r"^smooth signal needs n >= 2$"):
            synthetic_signal(path_graph(1), "smooth")
        x = synthetic_signal(path_graph(2), "smooth")  # the centred pair, shrunk by K
        assert np.max(np.abs(x)) == 1.0 and x[0] == pytest.approx(-x[1])

    @pytest.mark.parametrize("twins", [False, True], ids=["compiled", "twins"])
    def test_smooth_is_the_centred_gaussian_through_K(self, twins):
        # K at q = 0.01 times the mean degree, both means summed in the
        # kernels' lanes, scaled to peak 1: bit for bit, under either set
        chosen = _twins.TWINS if twins else _native.compiled()
        if chosen is None:
            pytest.skip("the compiled loops cannot be built here")
        g = gen_graph("barabasi_albert", n=300, k=3, seed=2)
        with using_kernels(chosen):
            ones = np.ones(g.n)
            y = synthetic_signal(g, "gaussian", seed=7)
            y = y - chosen.dot(y, ones) / g.n
            q = 0.01 * chosen.dot(np.array(g.degrees), ones) / g.n
            x, _ = solve_exact_cg(SmoothingProblem(g, y, q))
            expected = x / np.max(np.abs(x))
            assert np.array_equal(synthetic_signal(g, "smooth", seed=7), expected)
        assert not np.array_equal(synthetic_signal(g, "smooth", seed=8), expected)


class TestPsnr:
    def test_hand_value(self):
        # mse = 0.005, peak = 1 -> 10 log10(200)
        clean = np.array([0.0, 1.0])
        est = np.array([0.0, 0.9])
        assert psnr(clean, est) == pytest.approx(10 * np.log10(200.0))

    def test_exact_recovery_capped(self):
        clean = np.array([0.0, 1.0])
        assert psnr(clean, clean) == pytest.approx(10 * np.log10(1.0 / 1e-15))

    def test_explicit_peak(self):
        clean = np.array([1.0, 1.0])
        est = np.array([0.0, 0.0])
        assert psnr(clean, est, peak=2.0) == pytest.approx(10 * np.log10(4.0))

    def test_zero_clean_signal_rejected(self):
        with pytest.raises(DataError, match="all-zero"):
            psnr(np.zeros(3), np.zeros(3))
