import pytest

from qslkit.smatrix import DensityMatrix2


class TestDensityMatrix2:
    def test_valid_construction(self):
        rho = DensityMatrix2([[0.25, 0.1j], [-0.1j, 0.75]])
        assert rho.excited_population == pytest.approx(0.75)
        assert rho.coherence == pytest.approx(-0.1j)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix2([[0.5, 0.2], [0.1, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix2([[0.6, 0], [0, 0.6]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix2([[0.5, 0.6], [0.6, 0.5]])

    def test_matrix_is_readonly(self):
        rho = DensityMatrix2.excited()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_basis_convention(self):
        assert DensityMatrix2.excited().matrix[1, 1] == 1.0
        assert DensityMatrix2.ground().matrix[0, 0] == 1.0
