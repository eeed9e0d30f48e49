// The simulation clock's unit, shared by every simulation layer.

#ifndef SRC_UTIL_SIM_TIME_H_
#define SRC_UTIL_SIM_TIME_H_

namespace jockey {

// Simulated time, in seconds since the start of the simulation.
using SimTime = double;

}  // namespace jockey

#endif  // SRC_UTIL_SIM_TIME_H_
