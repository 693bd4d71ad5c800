#include "names/name_record.h"

#include "util/bytes.h"
#include "util/hash.h"
#include "util/panic.h"

namespace remora::names {

NameRecord
NameRecord::decodePrefix(std::span<const uint8_t> in, uint64_t *nameHash)
{
    REMORA_ASSERT(in.size() >= kPrefixBytes);
    util::ByteReader r(in);
    util::Get io(r);
    NameRecord rec;
    uint64_t hash = 0;
    prefixLayout(io, rec, hash);
    if (nameHash != nullptr) {
        *nameHash = hash;
    }
    return rec;
}

uint64_t
NameRecord::nameHashOf(const std::string &name)
{
    return util::fnv1a(name);
}

uint64_t
registryHash(const std::string &name)
{
    // Distinct seed from nameHashOf so bucket index and match tag are
    // independent.
    return util::mix64(util::fnv1a(name));
}

} // namespace remora::names
