#include "analog/switches.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/fastmath.hpp"
#include "common/math_util.hpp"

namespace adc::analog {

using adc::common::FidelityProfile;

SwitchModel::SwitchModel(const SwitchConfig& config)
    : config_(config),
      nmos_(MosParams::nmos_018(config.w_over_l_nmos)),
      pmos_(MosParams::pmos_018(config.w_over_l_pmos)),
      nmos_vth0_(nmos_.vth(0.0)),
      pmos_vth0_(pmos_.vth(0.0)) {
  adc::common::require(config.vdd > 0.5, "SwitchModel: VDD too low");
  adc::common::require(config.cj0 >= 0.0, "SwitchModel: negative junction cap");
}

double SwitchModel::g_on(double u) const {
  u = adc::common::clamp(u, 0.0, config_.vdd);
  double g = 0.0;
  switch (config_.type) {
    case SwitchType::kNmosOnly: {
      // Gate at VDD, source at u, bulk at ground: body effect raises Vth.
      const double vov = config_.vdd - u - nmos_.vth(u);
      g = nmos_.g_on(vov);
      break;
    }
    case SwitchType::kTransmissionGate:
    case SwitchType::kBulkSwitchedTg: {
      const double vov_n = config_.vdd - u - nmos_.vth(u);
      // PMOS: gate at 0, source at u. Conventional TG keeps the N-well at
      // VDD, so the source-to-bulk voltage is VDD-u and the body effect
      // raises |Vth| exactly where the PMOS is needed most. Bulk switching
      // ties the well to the source when on: vsb = 0.
      const double vth_p = config_.type == SwitchType::kBulkSwitchedTg
                               ? pmos_vth0_
                               : pmos_.vth(config_.vdd - u);
      const double vov_p = u - vth_p;
      g = nmos_.g_on(vov_n) + pmos_.g_on(vov_p);
      break;
    }
    case SwitchType::kBootstrapped: {
      // Gate tracks source + VDD: constant overdrive, no body-effect
      // modulation of the drive (the bulk still follows the source in a
      // well-designed bootstrap).
      const double vov = config_.vdd - nmos_vth0_;
      g = nmos_.g_on(vov);
      break;
    }
  }
  return g;
}

double SwitchModel::r_on(double u) const {
  const double g = g_on(u);
  // An underdriven TG can have a dead zone near mid-rail at very low supply;
  // keep the model finite so the tracking error saturates instead of
  // diverging.
  constexpr double g_floor = 1e-6;  // 1 MOhm ceiling
  return 1.0 / std::max(g, g_floor);
}

template <FidelityProfile P>
double SwitchModel::c_junction_impl(double u) const {
  u = adc::common::clamp(u, 0.0, config_.vdd);
  // Reverse-biased drain junction to the grounded substrate.
  return config_.cj0 / adc::common::math::pow_p<P>(1.0 + u / config_.cj_phi, config_.cj_m);
}

double SwitchModel::c_junction(double u) const {
  return c_junction_impl<FidelityProfile::kExact>(u);
}

double SwitchModel::c_junction_fast(double u) const {
  return c_junction_impl<FidelityProfile::kFast>(u);
}

double SwitchModel::time_constant(double u, double c_load) const {
  return r_on(u) * (c_load + c_junction(u));
}

double SwitchModel::time_constant_fast(double u, double c_load) const {
  return r_on(u) * (c_load + c_junction_fast(u));
}

namespace {

/// Effective channel-charge overdrive: the hard square-law turn-off is
/// softened by the moderate/weak-inversion tail, so the charge approaches
/// zero smoothly (softplus with scale `s`) instead of kinking.
template <FidelityProfile P>
double soft_overdrive(double vov, double s) {
  if (s <= 0.0) return vov > 0.0 ? vov : 0.0;
  if (vov > 8.0 * s) return vov;  // avoid exp overflow, exact limit
  return s * adc::common::math::log1p_p<P>(adc::common::math::exp_p<P>(vov / s));
}

}  // namespace

template <FidelityProfile P>
double SwitchModel::channel_charge_impl(double u) const {
  u = adc::common::clamp(u, 0.0, config_.vdd);
  const Mos& nmos = nmos_;
  const Mos& pmos = pmos_;
  const double cch_n = config_.w_over_l_nmos * config_.channel_cap_per_wl;
  const double cch_p = config_.w_over_l_pmos * config_.channel_cap_per_wl;
  const double soft = config_.injection_softening;

  double q = 0.0;
  switch (config_.type) {
    case SwitchType::kNmosOnly: {
      q -= cch_n * soft_overdrive<P>(config_.vdd - u - nmos.vth(u), soft);  // electrons
      break;
    }
    case SwitchType::kTransmissionGate:
    case SwitchType::kBulkSwitchedTg: {
      const double vth_p = config_.type == SwitchType::kBulkSwitchedTg
                               ? pmos_vth0_
                               : pmos.vth(config_.vdd - u);
      q -= cch_n * soft_overdrive<P>(config_.vdd - u - nmos.vth(u), soft);
      q += cch_p * soft_overdrive<P>(u - vth_p, soft);  // holes
      break;
    }
    case SwitchType::kBootstrapped: {
      // Constant overdrive: constant charge, no signal dependence (and a
      // well-designed bootstrap adds a dummy to cancel even that).
      q -= cch_n * (config_.vdd - nmos_vth0_);
      break;
    }
  }
  return q;
}

double SwitchModel::channel_charge(double u) const {
  return channel_charge_impl<FidelityProfile::kExact>(u);
}

double SwitchModel::channel_charge_fast(double u) const {
  return channel_charge_impl<FidelityProfile::kFast>(u);
}

DifferentialSampler::DifferentialSampler(const SwitchConfig& config, double common_mode,
                                         double c_load)
    : switch_(config), common_mode_(common_mode), c_load_(c_load) {
  adc::common::require(c_load > 0.0, "DifferentialSampler: non-positive load");
  adc::common::require(common_mode > 0.0 && common_mode < config.vdd,
                       "DifferentialSampler: CM outside supply range");
}

double DifferentialSampler::average_time_constant(double v_diff) const {
  const double up = common_mode_ + 0.5 * v_diff;
  const double un = common_mode_ - 0.5 * v_diff;
  return 0.5 * (switch_.time_constant(up, c_load_) + switch_.time_constant(un, c_load_));
}

double DifferentialSampler::charge_injection_error(double v_diff) const {
  const double frac = switch_.config().injection_fraction;
  if (frac <= 0.0) return 0.0;
  const double up = common_mode_ + 0.5 * v_diff;
  const double un = common_mode_ - 0.5 * v_diff;
  // Each side's sampled voltage shifts by frac * q(u) / C; the differential
  // error keeps only the odd part of q(u) around the common mode.
  return frac * (switch_.channel_charge(up) - switch_.channel_charge(un)) / c_load_;
}

double DifferentialSampler::tracking_error(double v_diff, double dvdt) const {
  // First-order incomplete-tracking model: each side lags its input by its
  // own tau; the differential error is the average tau times the slope. The
  // average is even in v_diff, so only odd-order distortion survives, growing
  // linearly with input frequency -- the Fig. 6 mechanism.
  return -average_time_constant(v_diff) * dvdt;
}

double DifferentialSampler::average_time_constant_direct_fast(double v_diff) const {
  const double up = common_mode_ + 0.5 * v_diff;
  const double un = common_mode_ - 0.5 * v_diff;
  return 0.5 *
         (switch_.time_constant_fast(up, c_load_) + switch_.time_constant_fast(un, c_load_));
}

double DifferentialSampler::charge_injection_error_direct_fast(double v_diff) const {
  const double frac = switch_.config().injection_fraction;
  if (frac <= 0.0) return 0.0;
  const double up = common_mode_ + 0.5 * v_diff;
  const double un = common_mode_ - 0.5 * v_diff;
  return frac * (switch_.channel_charge_fast(up) - switch_.channel_charge_fast(un)) / c_load_;
}

void DifferentialSampler::prepare_fast(double v_max) {
  fit_vmax2_ = -1.0;  // fits below must sample the direct expressions
  // Past the supply clamp the per-side curves lose smoothness and a
  // polynomial fit rings, so trim the requested span to the clamp-free
  // region around the common mode.
  const double v_kink = 2.0 * std::min(common_mode_, switch_.config().vdd - common_mode_);
  v_max = std::min(std::abs(v_max), 0.999 * v_kink);
  if (!(v_max > 0.0)) return;
  const double z_max = v_max * v_max;
  constexpr int kDegree = 10;  // ~1e-8 relative over the smooth span
  tau_fit_ = adc::common::Chebyshev::fit(
      [this](double z) { return average_time_constant_direct_fast(std::sqrt(z)); }, 0.0,
      z_max, kDegree);
  // H(z) = q_err(sqrt(z))/sqrt(z) is smooth through z = 0 because q_err is
  // odd; the Chebyshev nodes are interior, so the quotient never divides
  // by zero.
  inj_fit_ = adc::common::Chebyshev::fit(
      [this](double z) {
        const double v = std::sqrt(z);
        return charge_injection_error_direct_fast(v) / v;
      },
      0.0, z_max, kDegree);
  fit_vmax2_ = z_max;
}

void DifferentialSampler::write_fast_fields(SamplerView& view) const {
  // An unprepared surrogate (span < 0) sends every input through the
  // fallback; one zero coefficient keeps Clenshaw off an empty table.
  static constexpr double kNoFit[1] = {0.0};
  const auto table = [](const adc::common::Chebyshev& fit) {
    return fit.valid() ? fit.view() : adc::common::fastmath::ChebyshevView{kNoFit, 1};
  };
  view.tau = table(tau_fit_);
  view.inj = table(inj_fit_);
  view.span_z = fit_vmax2_;
  view.injection_on = switch_.config().injection_fraction > 0.0;
  view.ctx = this;
  view.tau_fallback = [](const void* ctx, double v) {
    return static_cast<const DifferentialSampler*>(ctx)->average_time_constant_direct_fast(v);
  };
  view.inj_fallback = [](const void* ctx, double v) {
    return static_cast<const DifferentialSampler*>(ctx)->charge_injection_error_direct_fast(v);
  };
}

}  // namespace adc::analog
