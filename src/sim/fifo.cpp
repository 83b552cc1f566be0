#include "sim/fifo.h"

#include <stdexcept>

namespace medea::sim::detail {

void throw_fifo_full(const std::string& name, std::size_t capacity) {
  std::string msg("sim::Fifo ");
  msg += name;
  msg += ": push on a full FIFO (capacity ";
  msg += std::to_string(capacity);
  msg += ')';
  throw std::logic_error(msg);
}

}  // namespace medea::sim::detail
