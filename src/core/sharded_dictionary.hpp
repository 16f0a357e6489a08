#pragma once
/// \file sharded_dictionary.hpp
/// \brief Kept only so e2ebench/ builds unchanged; new code names Dictionary.

#include "core/dictionary_index.hpp"

namespace efd::core {

using ShardedDictionary = Dictionary;

}  // namespace efd::core
