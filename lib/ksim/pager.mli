(** The simulated user-mode pager behind demand paging.

    A {!Vmem.Addr_space.pager} is a pair of fetch closures the address
    space calls on first-touch (major) faults; this module is where
    their behaviour — the fetch-cost model per pulled page and the
    private cookie encoding — lives, keeping vmem ignorant of what a
    cookie means. Two page sources are modelled:

    - {e image-backed} ([image_cookie]): a page of the executable image,
      installed lazily by a demand-paged exec ([Pager_fetch_image]);
    - {e template-backed} (no cookie — the backing-table path): a page
      copied out of a sealed zygote template on first touch
      ([Pager_fetch_template]).

    Each first-touch fault additionally charges one [Pager_request]
    upcall, amortised over [readahead + 1] pages when readahead pulls
    neighbours in — the batching policy knob of E18. The host side
    matches: the address space calls a fetch closure once per request
    with all of the request's pages from its source, and the closure
    charges its category once, [~n] pages at a time.

    On a real OS this layer is what [userfaultfd] (Linux) or an external
    pager port (Mach) would implement; here the pager is a trusted
    closure and only its costs are simulated. *)

val image_cookie : page:int -> int
(** Cookie for page [page] (0-based) of an executable image.
    @raise Invalid_argument on a negative page. *)

val image_stride : int
(** The per-page cookie increment of a consecutive image run:
    [image_cookie ~page:(p + 1) = image_cookie ~page:p + image_stride].
    Pass as [~stride] to {!Vmem.Addr_space.map_lazy} when installing an
    image segment in one call. *)

val make :
  frames:Vmem.Frame.t ->
  deny:(unit -> bool) ->
  readahead:int ->
  unit ->
  Vmem.Addr_space.pager
(** Build the pager for one machine: [frames] is its physical memory
    (template fetches copy pinned frames out of it), [deny] the
    fault-injection hook consulted per pulled page (wire to
    {!Fault.on_pager_fetch}), [readahead] the batch knob. Its [fetch]
    raises [Invalid_argument] on any cookie that no encoder here made.
    @raise Invalid_argument on negative [readahead]. *)
