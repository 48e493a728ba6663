// The preemption primitives under study (§II, §IV).
//
//   Wait     — do nothing; the high-priority task waits for a free slot.
//              No wasted work, worst latency.
//   Kill     — kill the victim attempt (plus a cleanup attempt); it
//              reschedules from scratch. Best-ish latency, all work lost.
//   Suspend  — this paper's contribution: SIGTSTP the victim's process;
//              its state stays in memory (or is paged out lazily by the
//              OS, only if needed) and SIGCONT restores it.
//   NatjamCheckpoint — application-level suspension (Cho et al. [9]):
//              always serialize state to disk, kill the JVM, fast-forward
//              on resume.
//   Requeue  — SLURM's "requeue on other resources": drop the victim's
//              locality pin, then kill it, so it reschedules wherever a
//              slot frees first.
#pragma once

#include <string_view>

namespace osap {

enum class PreemptPrimitive { Wait, Kill, Suspend, NatjamCheckpoint, Requeue };

/// Every enumerator, for exhaustive iteration (round-trip tests, CLI
/// usage strings). Extending the enum without extending this list trips
/// the exhaustive round-trip test in tests/preempt/eviction_test.cpp.
inline constexpr PreemptPrimitive kAllPrimitives[] = {
    PreemptPrimitive::Wait,
    PreemptPrimitive::Kill,
    PreemptPrimitive::Suspend,
    PreemptPrimitive::NatjamCheckpoint,
    PreemptPrimitive::Requeue,
};

/// The accepted spellings, embedded in every parse error so osap and
/// osapd report the same actionable message for a typoed axis value.
inline constexpr const char* kPrimitiveSpellings =
    "wait, kill, susp, suspend, natjam, checkpoint, requeue";

const char* to_string(PreemptPrimitive p) noexcept;

/// Parse any spelling in kPrimitiveSpellings; throws SimError naming the
/// offending value and the full list otherwise.
PreemptPrimitive parse_primitive(std::string_view name);

}  // namespace osap
