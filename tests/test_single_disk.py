import pytest

from diskcover import best_disk_sweep, candidate_disks, coverage

from conftest import make_points, uniform_points


def brute_force_rho(pts):
    """Independent optimum: best coverage count over the candidate set."""
    return max(coverage(d, pts).count for d in candidate_disks(pts))


class TestSweep:
    def test_close_pair_beats_singleton(self):
        res = best_disk_sweep(make_points([(0, 0), (0.5, 0), (5, 5)]))
        assert res.rho_witness == 2

    def test_pair_beyond_two_apart(self):
        res = best_disk_sweep(make_points([(0, 0), (2.1, 0)]))
        assert res.rho_witness == 1

    def test_matches_candidate_brute_force(self):
        pts = uniform_points(7, 30, 0.0, 10.0)
        assert best_disk_sweep(pts).rho_witness == brute_force_rho(pts)

    def test_matches_brute_force_denser(self):
        for seed in range(5):
            pts = uniform_points(seed, 35, 0.0, 4.0)
            assert best_disk_sweep(pts).rho_witness == brute_force_rho(pts)

    def test_singleton_fallback_lexicographic(self):
        for coords in ([(4, 4), (0, 0), (9, 1)], [(0, 0)]):
            res = best_disk_sweep(make_points(coords))
            assert res.rho_witness == 1
            assert (res.disk.cx, res.disk.cy) == (0.0, 0.0)

    def test_duplicate_points(self):
        pts = make_points([(1, 1), (1, 1), (1, 1), (8, 8)])
        res = best_disk_sweep(pts)
        assert res.rho_witness == 3

    def test_coverage_recomputes(self):
        pts = uniform_points(19, 80, 0.0, 9.0)
        res = best_disk_sweep(pts)
        assert coverage(res.disk, pts).bits == res.covered.bits

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_disk_sweep([])

