let page_shift = 12
let page_size = 1 lsl page_shift
let levels = 4
let index_bits = 9
let entries_per_table = 1 lsl index_bits
let va_bits = page_shift + (levels * index_bits)
let max_va = 1 lsl va_bits
let is_page_aligned a = a land (page_size - 1) = 0
let align_down a = a land lnot (page_size - 1)
let align_up a = align_down (a + page_size - 1)
let page_number a = a lsr page_shift
let page_offset a = a land (page_size - 1)
let addr_of_page p = p lsl page_shift

let pages_spanning addr len =
  if len <= 0 then 0
  else page_number (addr + len - 1) - page_number addr + 1

let table_index ~level vpn =
  if level < 0 || level >= levels then invalid_arg "Addr.table_index: level";
  (vpn lsr (level * index_bits)) land (entries_per_table - 1)

let valid a = a >= 0 && a < max_va
