#include "os/process.hpp"

namespace osap {

const char* to_string(Signal s) noexcept {
  switch (s) {
    case Signal::Tstp: return "SIGTSTP";
    case Signal::Cont: return "SIGCONT";
    case Signal::Kill: return "SIGKILL";
    case Signal::Term: return "SIGTERM";
  }
  return "?";
}

const char* to_string(ProcState s) noexcept {
  switch (s) {
    case ProcState::Running: return "running";
    case ProcState::Stopping: return "stopping";
    case ProcState::Stopped: return "stopped";
    case ProcState::Zombie: return "zombie";
  }
  return "?";
}

}  // namespace osap
