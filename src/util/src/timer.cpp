// timer.hpp is header-only; this translation unit exists so histcc_util is a
// normal static library and the headers get compiled at least once.
#include "histcc/util/timer.hpp"

namespace histcc::util {

static_assert(sizeof(Timer) > 0);

}  // namespace histcc::util
