#include "core/shard_routing.h"

namespace eslev {

const StreamRoute* ShardRouting::Find(const std::string& stream) const {
  auto it = routes.find(stream);
  return it == routes.end() ? nullptr : &it->second;
}

Status ShardRouting::CheckKey(const StreamRoute& route,
                              const Tuple& tuple) const {
  if (route.single_shard || route.key_index < tuple.size()) {
    return Status::OK();
  }
  return Status::Invalid("tuple too short for partition key column " +
                         std::to_string(route.key_index) + " of stream " +
                         route.name);
}

}  // namespace eslev
