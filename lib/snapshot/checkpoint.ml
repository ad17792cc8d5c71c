type t = {
  node : int;
  taken_at : Netsim.Time.t;
  image : Bgp.Speaker.capture;
}

let take ~at speaker =
  { node = speaker.Bgp.Speaker.sp_node;
    taken_at = at;
    image = Bgp.Speaker.capture speaker }

let respawn ?bugs t ~net =
  t.image.Bgp.Speaker.cap_respawn ~net
    ~bugs:(Option.value bugs ~default:t.image.Bgp.Speaker.cap_bugs)

let route_count t = Lazy.force t.image.Bgp.Speaker.cap_route_count
let impl t = t.image.Bgp.Speaker.cap_impl
let config t = t.image.Bgp.Speaker.cap_config

let pp ppf t =
  Format.fprintf ppf "checkpoint(node=%d impl=%s at=%a routes=%d)" t.node (impl t)
    Netsim.Time.pp t.taken_at (route_count t)
