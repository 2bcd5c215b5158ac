let tag_bits = 2
let tag_mask = (1 lsl tag_bits) - 1
let tag_image = 1

let image_stride = 1 lsl tag_bits
let image_cookie ~page =
  if page < 0 then invalid_arg "Pager.image_cookie: negative page";
  (page lsl tag_bits) lor tag_image

let decode cookie =
  if cookie land tag_mask = tag_image then `Image (cookie lsr tag_bits)
  else invalid_arg "Pager: unknown cookie tag"

let make ~frames ~deny ~readahead () =
  if readahead < 0 then invalid_arg "Pager.make: negative readahead";
  let fetch cost ~cookie ~frame =
    ignore frame;
    let p = Vmem.Cost.params cost in
    match decode cookie with
    | `Image _ ->
      (* image geometry is modelled, not stored: there are no bytes to
         pull, but the page-sized read from the image is charged *)
      Vmem.Cost.charge cost Pager_fetch_image p.Vmem.Cost.pager_fetch_image
  in
  let fetch_backing cost ~src ~dst =
    let p = Vmem.Cost.params cost in
    Vmem.Cost.charge cost Pager_fetch_template
      p.Vmem.Cost.pager_fetch_template;
    Vmem.Frame.copy_contents frames ~src ~dst
  in
  { Vmem.Addr_space.fetch; fetch_backing; deny; readahead }
