#include "core/model_io.h"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/string_util.h"

namespace qreg {
namespace core {

namespace {
constexpr const char* kMagic = "qreg-llm-model";
constexpr int kVersion = 1;

util::Status Truncated(const std::string& where) {
  return util::Status::IoError("truncated model stream at " + where);
}

// Reads one "<key> <value>" header field. A stream that ends (or a value
// that does not parse) first is truncated; a wrong key is InvalidArgument.
template <typename T>
util::Status ReadField(std::istream* is, const char* want, T* value) {
  std::string key;
  *is >> key >> *value;
  if (!is->good()) return Truncated(util::Format("field '%s'", want));
  if (key != want) {
    return util::Status::InvalidArgument(
        util::Format("expected field '%s', found '%s'", want, key.c_str()));
  }
  return util::Status::OK();
}

// Appends `n` values to `out` as they are read: a count claimed by the
// header never sizes an allocation, so an inflated count fails as truncated.
util::Status ReadDoubles(std::istream* is, int64_t n, std::vector<double>* out,
                         const std::string& where) {
  for (int64_t j = 0; j < n; ++j) {
    double v = 0.0;
    *is >> v;
    if (!is->good()) return Truncated(where);
    out->push_back(v);
  }
  return util::Status::OK();
}

util::Status NegativeCount(const char* field) {
  return util::Status::InvalidArgument(
      util::Format("field '%s' must not be negative", field));
}

}  // namespace

util::Status ModelSerializer::Save(const LlmModel& model, std::ostream* os) {
  if (os == nullptr) return util::Status::InvalidArgument("null stream");
  const LlmConfig& c = model.config();
  *os << kMagic << ' ' << kVersion << '\n';
  *os << std::setprecision(17);
  *os << "d " << c.d << '\n';
  *os << "vigilance " << c.vigilance << '\n';
  *os << "a " << c.a << '\n';
  *os << "gamma " << c.gamma << '\n';
  *os << "schedule " << static_cast<int>(c.schedule) << '\n';
  *os << "constant_eta " << c.constant_eta << '\n';
  *os << "coef_power " << c.coef_power << '\n';
  *os << "slope_shrinkage " << c.slope_shrinkage << '\n';
  *os << "normalize " << (c.normalize_coef_step ? 1 : 0) << '\n';
  *os << "prediction " << static_cast<int>(c.prediction) << '\n';
  *os << "fixed_k " << c.fixed_k << '\n';
  *os << "seed_y " << (c.seed_y_with_answer ? 1 : 0) << '\n';
  *os << "window " << c.convergence_window << '\n';
  *os << "observations " << model.observations() << '\n';
  *os << "frozen " << (model.frozen() ? 1 : 0) << '\n';
  *os << "prototypes " << model.num_prototypes() << '\n';
  for (const Prototype& p : model.prototypes()) {
    *os << "p";
    for (double v : p.w.center) *os << ' ' << v;
    *os << ' ' << p.w.theta << ' ' << p.y;
    for (double v : p.b_x) *os << ' ' << v;
    *os << ' ' << p.b_theta << ' ' << p.wins << '\n';
  }
  if (!os->good()) return util::Status::IoError("stream write failed");
  return util::Status::OK();
}

util::Status ModelSerializer::SaveToFile(const LlmModel& model,
                                         const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return util::Status::IoError("cannot open " + path);
  QREG_RETURN_NOT_OK(Save(model, &out));
  out.close();
  if (out.fail()) return util::Status::IoError("close failed: " + path);
  return util::Status::OK();
}

util::Result<LlmModel> ModelSerializer::Load(std::istream* is) {
  if (is == nullptr) return util::Status::InvalidArgument("null stream");
  std::string magic;
  int version = 0;
  *is >> magic >> version;
  if (magic != kMagic) {
    return util::Status::InvalidArgument("not a qreg model stream");
  }
  if (!is->good()) return Truncated("version");
  if (version != kVersion) {
    return util::Status::NotImplemented(
        util::Format("unsupported model version %d", version));
  }

  LlmConfig c;
  int64_t d = 0;
  int schedule = 0;
  int normalize = 0;
  int prediction = 0;
  int seed_y = 0;
  int frozen = 0;
  int64_t observations = 0;
  int64_t num_prototypes = 0;
  QREG_RETURN_NOT_OK(ReadField(is, "d", &d));
  QREG_RETURN_NOT_OK(ReadField(is, "vigilance", &c.vigilance));
  QREG_RETURN_NOT_OK(ReadField(is, "a", &c.a));
  QREG_RETURN_NOT_OK(ReadField(is, "gamma", &c.gamma));
  QREG_RETURN_NOT_OK(ReadField(is, "schedule", &schedule));
  QREG_RETURN_NOT_OK(ReadField(is, "constant_eta", &c.constant_eta));
  QREG_RETURN_NOT_OK(ReadField(is, "coef_power", &c.coef_power));
  QREG_RETURN_NOT_OK(ReadField(is, "slope_shrinkage", &c.slope_shrinkage));
  QREG_RETURN_NOT_OK(ReadField(is, "normalize", &normalize));
  QREG_RETURN_NOT_OK(ReadField(is, "prediction", &prediction));
  QREG_RETURN_NOT_OK(ReadField(is, "fixed_k", &c.fixed_k));
  QREG_RETURN_NOT_OK(ReadField(is, "seed_y", &seed_y));
  QREG_RETURN_NOT_OK(ReadField(is, "window", &c.convergence_window));
  QREG_RETURN_NOT_OK(ReadField(is, "observations", &observations));
  QREG_RETURN_NOT_OK(ReadField(is, "frozen", &frozen));
  QREG_RETURN_NOT_OK(ReadField(is, "prototypes", &num_prototypes));

  if (d < 0) return NegativeCount("d");
  if (observations < 0) return NegativeCount("observations");
  if (num_prototypes < 0) return NegativeCount("prototypes");
  if (schedule < 0 ||
      schedule > static_cast<int>(LearningRateSchedule::kConstant)) {
    return util::Status::InvalidArgument(
        util::Format("unknown learning-rate schedule %d", schedule));
  }
  if (prediction < 0 ||
      prediction > static_cast<int>(PredictionMode::kNearestOnly)) {
    return util::Status::InvalidArgument(
        util::Format("unknown prediction mode %d", prediction));
  }
  c.d = static_cast<size_t>(d);
  c.schedule = static_cast<LearningRateSchedule>(schedule);
  c.normalize_coef_step = normalize != 0;
  c.prediction = static_cast<PredictionMode>(prediction);
  c.seed_y_with_answer = seed_y != 0;
  QREG_RETURN_NOT_OK(c.Validate());

  LlmModel model(c);
  model.t_ = observations;
  for (int64_t i = 0; i < num_prototypes; ++i) {
    const std::string where = "prototype " + std::to_string(i);
    std::string key;
    *is >> key;
    if (!is->good()) return Truncated(where);
    if (key != "p") {
      return util::Status::InvalidArgument(util::Format(
          "expected a prototype line, found '%s'", key.c_str()));
    }
    Prototype p;
    QREG_RETURN_NOT_OK(ReadDoubles(is, d, &p.w.center, where));
    *is >> p.w.theta >> p.y;
    QREG_RETURN_NOT_OK(ReadDoubles(is, d, &p.b_x, where));
    *is >> p.b_theta >> p.wins;
    if (!is->good()) return Truncated(where);
    if (p.wins < 0) return NegativeCount("wins");
    // The preconditioner's second-moment accumulators are training state;
    // they are not persisted and re-warm if training resumes.
    p.input_sq_x.assign(p.b_x.size(), 0.0);
    model.AppendPrototype(std::move(p));
  }
  if (frozen != 0) model.Freeze();
  return model;
}

util::Result<LlmModel> ModelSerializer::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return util::Status::IoError("cannot open " + path);
  return Load(&in);
}

}  // namespace core
}  // namespace qreg
