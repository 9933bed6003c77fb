#include "src/perf/json_check.h"

#include <string>
#include <vector>

namespace mudi {
namespace perf {

namespace {

Status RequireKind(const JsonValue& parent, const std::string& key, JsonValue::Kind kind,
                   const std::string& where, const JsonValue** out) {
  const JsonValue* v = parent.Find(key);
  if (v == nullptr) {
    return InvalidArgumentError(where + ": missing required key '" + key + "'");
  }
  if (v->kind() != kind) {
    return InvalidArgumentError(where + ": key '" + key + "' has the wrong type");
  }
  if (out != nullptr) {
    *out = v;
  }
  return Status::Ok();
}

Status RequireNumberKeys(const JsonValue& obj, const std::vector<std::string>& keys,
                         const std::string& where) {
  for (const std::string& key : keys) {
    MUDI_RETURN_IF_ERROR(RequireKind(obj, key, JsonValue::Kind::kNumber, where, nullptr));
  }
  return Status::Ok();
}

}  // namespace

Status ValidateBenchThroughputJson(const JsonValue& root) {
  if (!root.is_object()) {
    return InvalidArgumentError("bench JSON: top level must be an object");
  }
  const JsonValue* schema = nullptr;
  MUDI_RETURN_IF_ERROR(
      RequireKind(root, "schema", JsonValue::Kind::kString, "bench JSON", &schema));
  if (schema->string() != "mudi.bench_throughput.v1") {
    return InvalidArgumentError("bench JSON: unknown schema '" + schema->string() + "'");
  }
  MUDI_RETURN_IF_ERROR(
      RequireKind(root, "build", JsonValue::Kind::kObject, "bench JSON", nullptr));

  const JsonValue* records = nullptr;
  MUDI_RETURN_IF_ERROR(
      RequireKind(root, "records", JsonValue::Kind::kArray, "bench JSON", &records));
  if (records->array().empty()) {
    return InvalidArgumentError("bench JSON: 'records' is empty");
  }
  for (size_t i = 0; i < records->array().size(); ++i) {
    const JsonValue& rec = records->array()[i];
    std::string where = "records[" + std::to_string(i) + "]";
    if (!rec.is_object()) {
      return InvalidArgumentError(where + ": not an object");
    }
    MUDI_RETURN_IF_ERROR(RequireKind(rec, "preset", JsonValue::Kind::kString, where, nullptr));
    MUDI_RETURN_IF_ERROR(RequireKind(rec, "policy", JsonValue::Kind::kString, where, nullptr));
    MUDI_RETURN_IF_ERROR(RequireNumberKeys(
        rec, {"wall_ms", "sim_ms", "events_fired", "events_scheduled", "events_cancelled",
              "events_per_sec", "sim_seconds_per_wall_second"},
        where));
    const JsonValue* decision = nullptr;
    MUDI_RETURN_IF_ERROR(
        RequireKind(rec, "decision_latency_ms", JsonValue::Kind::kObject, where, &decision));
    MUDI_RETURN_IF_ERROR(RequireNumberKeys(*decision, {"count", "p50", "p95", "p99", "max"},
                                           where + ".decision_latency_ms"));
  }
  return Status::Ok();
}

}  // namespace perf
}  // namespace mudi
