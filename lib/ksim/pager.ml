let tag_bits = 2
let tag_mask = (1 lsl tag_bits) - 1
let tag_image = 1

let image_stride = 1 lsl tag_bits
let image_cookie ~page =
  if page < 0 then invalid_arg "Pager.image_cookie: negative page";
  (page lsl tag_bits) lor tag_image

let make ~frames ~deny ~readahead () =
  if readahead < 0 then invalid_arg "Pager.make: negative readahead";
  let fetch cost ~cookies ~frames:_ ~n =
    for k = 0 to n - 1 do
      if cookies.(k) land tag_mask <> tag_image then
        invalid_arg "Pager: unknown cookie tag"
    done;
    (* image geometry is modelled, not stored: there are no bytes to
       pull, but each page-sized read from the image is charged *)
    let p = Vmem.Cost.params cost in
    Vmem.Cost.charge ~n cost Pager_fetch_image
      (p.Vmem.Cost.pager_fetch_image *. float_of_int n)
  in
  let fetch_backing cost ~src ~dst ~n =
    let p = Vmem.Cost.params cost in
    Vmem.Cost.charge ~n cost Pager_fetch_template
      (p.Vmem.Cost.pager_fetch_template *. float_of_int n);
    for k = 0 to n - 1 do
      Vmem.Frame.copy_contents frames ~src:src.(k) ~dst:dst.(k)
    done
  in
  { Vmem.Addr_space.fetch; fetch_backing; deny; readahead }
