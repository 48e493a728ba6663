// Strongly-typed integer identifiers.
//
// Each simulated entity family gets its own id type so a Pid can never be
// passed where a JobId is expected. Ids are comparable, hashable and
// printable; `valid()` distinguishes default-constructed (invalid) ids.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>

namespace osap {

template <typename Tag>
class StrongId {
 public:
  constexpr StrongId() noexcept = default;
  constexpr explicit StrongId(std::uint64_t v) noexcept : value_(v) {}

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return value_ != kInvalid; }

  friend constexpr bool operator==(StrongId a, StrongId b) noexcept = default;
  friend constexpr auto operator<=>(StrongId a, StrongId b) noexcept = default;

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    if (!id.valid()) return os << Tag::prefix() << "<invalid>";
    return os << Tag::prefix() << id.value();
  }

 private:
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
  std::uint64_t value_ = kInvalid;
};

struct NodeTag { static const char* prefix() { return "node_"; } };
struct PidTag { static const char* prefix() { return "pid_"; } };
struct JobTag { static const char* prefix() { return "job_"; } };
struct TaskTag { static const char* prefix() { return "task_"; } };
struct AttemptTag { static const char* prefix() { return "attempt_"; } };
struct TrackerTag { static const char* prefix() { return "tracker_"; } };

using NodeId = StrongId<NodeTag>;
using Pid = StrongId<PidTag>;
using JobId = StrongId<JobTag>;
using TaskId = StrongId<TaskTag>;
using AttemptId = StrongId<AttemptTag>;
using TrackerId = StrongId<TrackerTag>;

/// Monotonic id generator for one id family.
template <typename Id>
class IdGenerator {
 public:
  Id next() noexcept { return Id{next_++}; }

 private:
  std::uint64_t next_ = 0;
};

}  // namespace osap

template <typename Tag>
struct std::hash<osap::StrongId<Tag>> {
  std::size_t operator()(osap::StrongId<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
