// Ref-counted payload pages — the currency of the splice subsystem.
//
// A PageRef names one kPageSize buffer plus the number of valid bytes in it.
// The buffer is shared-owned: the page cache, pipe segments, tee'd
// duplicates and in-flight FUSE messages may all hold references to the same
// physical page. Moving a PageRef moves the page without copying; that is
// what splice()/vmsplice()/tee() analogues and the FUSE transport's
// zero-copy lanes trade in.
//
// Mutation discipline: a holder may write through `page` only while it is
// the sole owner (`unique()`), mirroring the kernel's page-steal rule. Every
// shared holder treats the buffer as read-only; writers that find the page
// shared must copy first (copy-on-write — see PageCachePool's COW guards).
#ifndef CNTR_SRC_SPLICE_PAGE_REF_H_
#define CNTR_SRC_SPLICE_PAGE_REF_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/kernel/types.h"

namespace cntr::splice {

struct PageRef {
  std::shared_ptr<char[]> page;  // kPageSize-byte buffer
  uint32_t len = 0;              // valid payload bytes, <= kPageSize

  bool valid() const { return page != nullptr; }
  // True when this reference is the only owner, i.e. the page may be
  // stolen (adopted without copy) or written in place.
  bool unique() const { return page != nullptr && page.use_count() == 1; }

  const char* data() const { return page.get(); }
  char* mutable_data() { return page.get(); }

  // A fresh zeroed page holding `len` valid bytes.
  static PageRef Alloc(uint32_t len) {
    PageRef ref;
    ref.page = std::make_shared<char[]>(kernel::kPageSize);
    ref.len = len;
    return ref;
  }

  // A fresh page holding a copy of `src[0, len)`; the tail is zeroed.
  static PageRef Copy(const char* src, uint32_t len) {
    PageRef ref;
    ref.page = std::make_shared_for_overwrite<char[]>(kernel::kPageSize);
    ref.len = len;
    std::memcpy(ref.page.get(), src, len);
    std::memset(ref.page.get() + len, 0, kernel::kPageSize - len);
    return ref;
  }

  // A view of the same physical page with a shorter valid length (used to
  // clamp the EOF tail of a spliced file page; the buffer stays shared).
  PageRef WithLen(uint32_t new_len) const {
    PageRef ref = *this;
    ref.len = new_len;
    return ref;
  }
};

// Chops a byte buffer into page-sized refs (the shared chopper under
// vmsplice and payload packing). Costs are the caller's to charge — only
// bytes that actually transfer should be billed.
inline std::vector<PageRef> ChopIntoPages(const char* buf, size_t len) {
  std::vector<PageRef> pages;
  pages.reserve((len + kernel::kPageSize - 1) / kernel::kPageSize);
  size_t done = 0;
  while (done < len) {
    uint32_t take =
        static_cast<uint32_t>(std::min<size_t>(kernel::kPageSize, len - done));
    pages.push_back(PageRef::Copy(buf + done, take));
    done += take;
  }
  return pages;
}

}  // namespace cntr::splice

#endif  // CNTR_SRC_SPLICE_PAGE_REF_H_
