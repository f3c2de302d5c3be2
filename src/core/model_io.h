// Versioned text serialization of a trained LlmModel. After training
// converges the parameter set α is immutable (Algorithm 1), so models can be
// saved once and shipped to prediction-only services.

#ifndef QREG_CORE_MODEL_IO_H_
#define QREG_CORE_MODEL_IO_H_

#include <iosfwd>
#include <string>

#include "core/llm_model.h"
#include "util/status.h"

namespace qreg {
namespace core {

/// \brief Save/load of LlmModel parameter sets.
class ModelSerializer {
 public:
  /// Writes the model (config + all prototypes) to `os`.
  static util::Status Save(const LlmModel& model, std::ostream* os);

  /// Writes to a file path.
  static util::Status SaveToFile(const LlmModel& model, const std::string& path);

  /// Reads a model previously written by Save. The stream format carries a
  /// version header; unknown versions fail with NotImplemented. A stream
  /// that ends early fails with IoError; a wrong field, a negative count or
  /// an unknown enum value fails with InvalidArgument. Allocations grow with
  /// the values actually read, never with a count the header claims.
  static util::Result<LlmModel> Load(std::istream* is);

  /// Reads from a file path.
  static util::Result<LlmModel> LoadFromFile(const std::string& path);
};

}  // namespace core
}  // namespace qreg

#endif  // QREG_CORE_MODEL_IO_H_
