// The `avx512` kernel: like `avx2` but accumulates with 512-bit FMA
// intrinsics, eight degrees of freedom per instruction, and handles the
// `ndofs % 8` tail with a masked load/FMA/store instead of a scalar loop.
//
// The paper's KNL version (Sec. V-A) also splits the point walk across an
// intra-kernel OpenMP team. This kernel does not: evaluate() walks every
// point on the calling thread, so its result does not depend on any team
// size and it is safe to call from many threads at once. The parallelism
// comes from the work-stealing pool and the device dispatcher, which call
// evaluate() concurrently (see DESIGN.md, Substitutions).
#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "kernels/kernels_internal.hpp"
#include "sparse_grid/basis.hpp"

namespace hddm::kernels::detail {

namespace {

class Avx512Kernel final : public InterpolationKernel {
 public:
  explicit Avx512Kernel(const core::CompressedGridData& grid) : grid_(grid) {}

  [[nodiscard]] KernelKind kind() const override { return KernelKind::Avx512; }
  [[nodiscard]] int dim() const override { return grid_.dim; }
  [[nodiscard]] int ndofs() const override { return grid_.ndofs; }

  __attribute__((target("avx512f"))) void evaluate(const double* x,
                                                   double* value) const override {
    thread_local std::vector<double> xpv;
    xpv.resize(grid_.xps.size());
    compute_xpv(grid_, x, xpv.data());

    const int nd = grid_.ndofs;
    const int nfreq = grid_.nfreq;
    const int nd8 = nd & ~7;
    const __mmask8 tail_mask = static_cast<__mmask8>((1u << (nd - nd8)) - 1u);
    std::fill(value, value + nd, 0.0);

    const std::uint32_t* chain = grid_.chains.data();
    for (std::uint32_t p = 0; p < grid_.nno; ++p, chain += nfreq) {
      double temp = 1.0;
      for (int f = 0; f < nfreq; ++f) {
        const std::uint32_t idx = chain[f];
        if (!idx) break;
        temp *= xpv[idx];
        if (temp == 0.0) break;
      }
      if (temp == 0.0) continue;

      const double* srow = grid_.surplus_row(p);
      const __m512d vtemp = _mm512_set1_pd(temp);
      int dof = 0;
      for (; dof < nd8; dof += 8) {
        const __m512d acc = _mm512_loadu_pd(value + dof);
        const __m512d s = _mm512_loadu_pd(srow + dof);
        _mm512_storeu_pd(value + dof, _mm512_fmadd_pd(vtemp, s, acc));
      }
      if (dof < nd) {
        const __m512d acc = _mm512_maskz_loadu_pd(tail_mask, value + dof);
        const __m512d s = _mm512_maskz_loadu_pd(tail_mask, srow + dof);
        _mm512_mask_storeu_pd(value + dof, tail_mask, _mm512_fmadd_pd(vtemp, s, acc));
      }
    }
  }

 private:
  const core::CompressedGridData& grid_;
};

}  // namespace

std::unique_ptr<InterpolationKernel> make_avx512_kernel(const core::CompressedGridData& grid) {
  return std::make_unique<Avx512Kernel>(grid);
}

}  // namespace hddm::kernels::detail
